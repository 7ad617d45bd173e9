//! The whole benchmark at smoke size: every workload, timed and
//! traced, each in its own child process, with every output check;
//! then `compare` of the result against itself. Everything it writes
//! stays under `target/benchmark-smoke/` of this package.

use std::path::Path;
use std::process::Command;

use adgen_benchmark::metrics::{END_TO_END, PER_LAYER};
use adgen_benchmark::result::RunFile;
use adgen_benchmark::Workload;

#[test]
fn smoke_run_checks_its_outputs_and_passes_a_self_compare() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/benchmark-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let benchmark = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
        cmd.current_dir(&dir).env_remove("CARGO_TARGET_DIR");
        cmd
    };

    let run = benchmark()
        .args(["run", "--smoke", "--seconds", "1", "--out", "result.json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    for m in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(stdout.contains(m), "metric {m} not printed");
    }

    let text = std::fs::read_to_string(dir.join("result.json")).unwrap();
    let file = RunFile::parse(&text).unwrap();
    for key in ["nproc", "git_rev", "profile", "rustc", "seed", "ops"] {
        assert!(file.host.contains_key(key), "host block lacks {key}");
    }
    for w in Workload::ALL {
        let runs = &file.workloads[w.name()];
        assert!(
            runs.correct && runs.failed == 0 && runs.attempted > 0,
            "{w:?}"
        );
        assert_eq!(
            runs.metrics.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "{w:?}"
        );
    }

    let compare = benchmark()
        .args(["compare", "result.json", "result.json"])
        .output()
        .unwrap();
    assert!(
        compare.status.success(),
        "{}",
        String::from_utf8_lossy(&compare.stdout)
    );
}
