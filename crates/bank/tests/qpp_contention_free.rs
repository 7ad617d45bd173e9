//! The QPP contention-free property behind `bank::schedule` (SAGE's
//! parallel-window discipline, Chavet et al.): for `N = 2^k`, every
//! quadratic permutation polynomial `pi(x) = f1*x + f2*x^2 mod N` with
//! odd `f1` and even `f2`, read by `M` parallel lanes (lane `p` reads
//! `pi(p*W + t)` at cycle `t`, `W = N/M`) under the high-bits map
//! `HighBits { banks: M, window: W }`, never puts two lanes in one bank
//! in any cycle, for every power-of-two `M <= N`.
//!
//! `Interleaver::qpp_contention_free` picks one `(f1, f2)` pair; this
//! checks the whole family. The block and random interleavers at
//! `bankcamp`'s 256-address, 8-bank shape are the negative controls:
//! they must conflict, or a schedule that never counted a conflict
//! would pass.

use adgen_bank::{window_schedule, BankMap, Interleaver};
use adgen_exec::Prng;

/// Conflict cycles of `interleaver` under `HighBits { banks: m,
/// window: len / m }` with `m` lanes.
fn conflicts(interleaver: &Interleaver, m: u32) -> usize {
    let stream = interleaver.permutation().unwrap();
    let map = BankMap::HighBits {
        banks: m,
        window: interleaver.len() / m,
    };
    window_schedule(&stream, &map, m).unwrap().conflict_cycles
}

/// Every power-of-two lane count `M <= n`.
fn lane_counts(n: u32) -> impl Iterator<Item = u32> {
    (0..=n.trailing_zeros()).map(|j| 1 << j)
}

fn assert_contention_free(n: u32, f1: u32, f2: u32) {
    let qpp = Interleaver::Qpp { n, f1, f2 };
    for m in lane_counts(n) {
        assert_eq!(
            conflicts(&qpp, m),
            0,
            "QPP n={n} f1={f1} f2={f2} conflicts across {m} lanes"
        );
    }
}

#[test]
fn every_qpp_is_contention_free_up_to_64() {
    let mut cases = 0;
    for k in 1..=6 {
        let n = 1u32 << k;
        for f1 in (1..n).step_by(2) {
            for f2 in (0..n).step_by(2) {
                assert_contention_free(n, f1, f2);
                cases += lane_counts(n).count();
            }
        }
    }
    // 2 + 12 + 64 + 320 + 1536 + 7168 (N, f1, f2, M) cases.
    assert_eq!(cases, 9102);
}

#[test]
fn sampled_qpps_are_contention_free_at_256_and_1024() {
    let mut rng = Prng::new(2026);
    for n in [256u32, 1024] {
        let half = u64::from(n / 2);
        for _ in 0..48 {
            let f1 = 2 * rng.next_range(half) as u32 + 1;
            let f2 = 2 * rng.next_range(half) as u32;
            assert_contention_free(n, f1, f2);
        }
    }
}

#[test]
fn block_and_random_interleavers_conflict_at_the_bankcamp_shape() {
    let (n, banks) = (256u32, 8u32);
    let controls = [
        Interleaver::Block {
            rows: banks,
            cols: n / banks,
        },
        Interleaver::Random { n, seed: 2026 },
    ];
    for il in &controls {
        assert!(
            conflicts(il, banks) > 0,
            "{} interleaver scheduled conflict-free",
            il.label()
        );
    }
    // The contention-free QPP bankcamp prices stays clean at that shape.
    let qpp = Interleaver::qpp_contention_free(n, banks).unwrap();
    assert_eq!(conflicts(&qpp, banks), 0);
}
