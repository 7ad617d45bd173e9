//! Golden-file helpers shared by the `golden_*` integration tests.
//!
//! Every test target compiles its own copy of this module, so
//! `CARGO_CRATE_NAME` below is that target's name and each failure
//! message names the `--test` target that regenerates its goldens.

use std::fs;
use std::path::PathBuf;

/// The command that rewrites this test target's goldens.
const BLESS: &str = concat!(
    "BLESS_GOLDEN=1 cargo test --test ",
    env!("CARGO_CRATE_NAME")
);

/// Byte-compares `actual` against `tests/golden/<name>`, or rewrites
/// the golden when `BLESS_GOLDEN` is set. `what` names the artefact
/// (and any contract a change breaks) in the failure message.
pub fn assert_matches_golden(name: &str, actual: &str, what: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with {BLESS}",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "{what} diverged from {} — if intentional, regenerate with {BLESS}",
        path.display()
    );
}
