//! `Executor::try_parallel` against the `SMASH_THREADS` override.
//!
//! This file is its own test binary, so it runs in its own process and
//! its `set_var` calls cannot race the environment reads of other tests.
//! Keep it to the one `#[test]`: tests inside one binary share a process.

use smash::parallel::THREADS_ENV;
use smash::{Executor, SmashError};

#[test]
fn try_parallel_rejects_a_malformed_override_and_honours_a_valid_one() {
    let saved = std::env::var_os(THREADS_ENV);

    for raw in ["abc", "0"] {
        std::env::set_var(THREADS_ENV, raw);
        match Executor::try_parallel() {
            Err(SmashError::PoolUnavailable { detail }) => assert!(
                detail.contains(&format!("{raw:?}")),
                "{THREADS_ENV}={raw}: detail {detail:?} must name the raw value"
            ),
            Err(other) => panic!("{THREADS_ENV}={raw}: expected PoolUnavailable, got {other:?}"),
            Ok(exec) => panic!(
                "{THREADS_ENV}={raw}: expected PoolUnavailable, got an executor with {} threads",
                exec.threads()
            ),
        }
    }

    std::env::set_var(THREADS_ENV, "2");
    let exec = Executor::try_parallel().expect("SMASH_THREADS=2 is valid");
    assert_eq!(exec.threads(), 2);

    std::env::remove_var(THREADS_ENV);
    let exec = Executor::try_parallel().expect("an unset SMASH_THREADS is valid");
    assert!(exec.threads() >= 1);

    match saved {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
}
