//! Thread-local "which stage is executing" context.
//!
//! The store pushes the stage name around every memoized `compute()`, and
//! methods label their uncached entry points too; anything that fails deep
//! inside a pipeline — a worker panic in `structmine_linalg::exec`, a store
//! warning — can then name the stage it happened in instead of reporting a
//! bare "worker panicked". Labels nest (a method stage may run store stages
//! inside itself); the innermost label wins.
//!
//! Since the observability layer ([`crate::obs`]) landed, every guard is
//! also a span: on drop it records its wall time, invocation count, and
//! thread index into the global span registry under its full nesting path.
//! Re-pushing the label that is already innermost (the memoized-store path:
//! `run_memoized("x/predict")` wraps a compute that immediately pushes
//! `"x/predict"` again) produces a pass-through guard that neither deepens
//! the path nor double-counts the span.
//!
//! The context is per-thread. Parallel helpers join their workers on the
//! spawning thread, so the label visible at `join()` time — where panics
//! are reported — is the right one. A long-lived thread that runs work
//! handed over from another adopts the sender's path for it
//! ([`with_stage_path`]), so its spans land where the sender's would.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static STAGE_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard that pops the label it pushed, panic-safely, and records the
/// elapsed span into [`crate::obs`]. A pass-through guard (duplicate
/// innermost label) does neither.
pub struct StageGuard {
    start: Option<Instant>,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let elapsed = start.elapsed();
        STAGE_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            crate::obs::record_span(&stack, elapsed);
            stack.pop();
        });
    }
}

/// Push `label` as the current stage for the lifetime of the returned
/// guard. Typical use: `let _stage = stage_guard("xclass/run");` as the
/// first line of a stage's body.
pub fn stage_guard(label: &str) -> StageGuard {
    crate::obs::init();
    let pushed = STAGE_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if stack.last().map(String::as_str) == Some(label) {
            false
        } else {
            stack.push(label.to_string());
            true
        }
    });
    StageGuard {
        start: pushed.then(Instant::now),
    }
}

/// Run `f` with `label` as the current stage.
pub fn with_stage_label<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let _guard = stage_guard(label);
    f()
}

/// The innermost stage label on this thread, if any.
pub fn current_stage_label() -> Option<String> {
    STAGE_STACK.with(|s| s.borrow().last().cloned())
}

/// This thread's open stage labels, outermost first.
pub fn stage_path() -> Vec<String> {
    STAGE_STACK.with(|s| s.borrow().clone())
}

/// Run `f` as if the stages of `path` (from [`stage_path`] on another
/// thread) were open on this one: the spans `f` records nest under
/// `path`, and none is recorded for `path` itself. A long-lived worker
/// thread uses it so the work handed to it keeps the span path it had
/// on the thread that handed it over.
pub fn with_stage_path<R>(path: &[String], f: impl FnOnce() -> R) -> R {
    /// Puts this thread's own stack back, also on unwind.
    struct Restore(Vec<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let own = std::mem::take(&mut self.0);
            STAGE_STACK.with(|s| *s.borrow_mut() = own);
        }
    }
    let own = STAGE_STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), path.to_vec()));
    let _restore = Restore(own);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_nest_and_unwind() {
        assert_eq!(current_stage_label(), None);
        with_stage_label("outer", || {
            assert_eq!(current_stage_label().as_deref(), Some("outer"));
            with_stage_label("inner", || {
                assert_eq!(current_stage_label().as_deref(), Some("inner"));
            });
            assert_eq!(current_stage_label().as_deref(), Some("outer"));
        });
        assert_eq!(current_stage_label(), None);
    }

    #[test]
    fn borrowed_stage_path_nests_and_restores() {
        with_stage_label("own", || {
            let path = vec!["serve/request".to_string()];
            with_stage_path(&path, || {
                assert_eq!(stage_path(), path);
                with_stage_label("engine/ingest", || {
                    assert_eq!(stage_path(), ["serve/request", "engine/ingest"]);
                });
            });
            assert_eq!(stage_path(), ["own"]);
            let caught = std::panic::catch_unwind(|| with_stage_path(&path, || panic!("boom")));
            assert!(caught.is_err());
            assert_eq!(stage_path(), ["own"], "own path must return on unwind");
        });
    }

    #[test]
    fn label_survives_a_panic_unwind() {
        let caught = std::panic::catch_unwind(|| {
            with_stage_label("doomed", || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(current_stage_label(), None, "guard must pop on unwind");
    }

    #[test]
    fn duplicate_innermost_label_is_pass_through() {
        with_stage_label("ctx-dup", || {
            with_stage_label("ctx-dup", || {
                assert_eq!(current_stage_label().as_deref(), Some("ctx-dup"));
            });
            // The inner pass-through guard must not have popped our label.
            assert_eq!(current_stage_label().as_deref(), Some("ctx-dup"));
        });
        assert_eq!(current_stage_label(), None);
    }
}
