//! The crate's worker pool, used by the shard reader ([`crate::load`]).
//!
//! Workers are scoped threads that claim the next task index from a shared
//! atomic counter, so a worker that draws a heavy task simply draws fewer.
//! Each task runs under `catch_unwind`: a panic fails that task alone and
//! every other task still runs. Results come back in task order, so what a
//! caller sees never depends on scheduling.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` over every task on up to `workers` threads (at least one) and
/// returns one result per task, in task order. A task that panicked yields
/// `Err` with its panic message.
pub(crate) fn run_indexed<T, R, F>(workers: usize, tasks: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // The counter only hands out indices; results travel back through
    // `join`, which synchronizes, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else {
                return done;
            };
            let result = catch_unwind(AssertUnwindSafe(|| f(task)));
            done.push((i, result.map_err(|payload| panic_message(payload.as_ref()))));
        }
    };
    let mut done: Vec<(usize, Result<R, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1).min(tasks.len()))
            .map(|_| s.spawn(worker))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tasks catch their own panics"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Mutex};

    #[test]
    fn results_come_back_in_task_order() {
        // Task 0 cannot finish until task 1 has, so the two workers
        // complete them out of order.
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let finished = Mutex::new(Vec::new());
        let out = run_indexed(2, &[0, 1], |&t| {
            if t == 0 {
                rx.lock().unwrap().recv().unwrap();
            }
            finished.lock().unwrap().push(t);
            if t == 1 {
                tx.send(()).unwrap();
            }
            t * 10
        });
        assert_eq!(*finished.lock().unwrap(), vec![1, 0]);
        assert_eq!(out, vec![Ok(0), Ok(10)]);
    }

    #[test]
    fn a_panicking_task_fails_alone() {
        let tasks: Vec<u32> = (0..9).collect();
        let out = run_indexed(3, &tasks, |&t| {
            if t == 4 {
                panic!("task {t} exploded");
            }
            t + 1
        });
        assert_eq!(out.len(), 9);
        for (t, result) in out.into_iter().enumerate() {
            match result {
                Err(msg) => {
                    assert_eq!(t, 4);
                    assert_eq!(msg, "task 4 exploded");
                }
                Ok(v) => assert_eq!(v as usize, t + 1),
            }
        }
    }

    #[test]
    fn zero_tasks_and_surplus_workers() {
        let out = run_indexed(8, &[] as &[u8], |&t| t);
        assert!(out.is_empty());
        let out = run_indexed(16, &[1, 2, 3], |&t: &i32| -t);
        assert_eq!(out, vec![Ok(-1), Ok(-2), Ok(-3)]);
        // Zero workers still runs every task on one thread.
        let out = run_indexed(0, &["a", "b"], |s| s.len());
        assert_eq!(out, vec![Ok(1), Ok(1)]);
    }
}
