//! The parallel experiment engine must be a pure speedup: for every
//! sweep, the rows computed with `jobs > 1` (or `0` = all cores) must
//! compare exactly equal — bit-identical floats, same order — to the
//! serial `jobs = 1` rows.

use adgen_bench::experiments::{
    ablation, fig3_4, fig8_9_10, interconnect, power_study, sharing, table3,
};

#[test]
fn fig3_4_rows_are_jobs_invariant() {
    let serial = fig3_4(&[8, 16, 32], 1);
    for jobs in [0, 2, 5] {
        assert_eq!(fig3_4(&[8, 16, 32], jobs), serial, "jobs = {jobs}");
    }
}

#[test]
fn fig8_9_10_rows_are_jobs_invariant() {
    let serial = fig8_9_10(&[16, 32], 1);
    for jobs in [0, 3] {
        assert_eq!(fig8_9_10(&[16, 32], jobs), serial, "jobs = {jobs}");
    }
}

#[test]
fn table3_rows_are_jobs_invariant() {
    let serial = table3(&[16, 32], 1);
    assert_eq!(table3(&[16, 32], 4), serial);
}

#[test]
fn power_rows_are_jobs_invariant() {
    let serial = power_study(&[16], 1);
    for jobs in [3, 5] {
        assert_eq!(power_study(&[16], jobs), serial, "jobs = {jobs}");
    }
}

#[test]
fn ablation_rows_are_jobs_invariant() {
    let serial = ablation(&[16], 1);
    assert_eq!(ablation(&[16], 2), serial);
}

#[test]
fn sharing_rows_are_jobs_invariant() {
    let serial = sharing(&[16, 32], 1);
    for jobs in [2, 5] {
        assert_eq!(sharing(&[16, 32], jobs), serial, "jobs = {jobs}");
    }
}

#[test]
fn interconnect_rows_are_jobs_invariant() {
    let loads = [0.0, 30.0, 120.0];
    let serial = interconnect(&loads, 1);
    assert_eq!(interconnect(&loads, 3), serial);
}
