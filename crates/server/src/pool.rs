//! A small hand-rolled thread pool for the accept loop.
//!
//! The build image is offline, so there is no tokio and no rayon; the
//! server follows the same philosophy as the workspace's `shims/`: the
//! minimal dependency-free mechanism that does the job. Jobs are boxed
//! closures pushed through an `mpsc` channel guarded by a mutex (the
//! classic shared-receiver pool); dropping the pool closes the channel
//! and joins every worker, so server shutdown deterministically waits
//! for in-flight connections to drain.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads executing boxed jobs.
pub(crate) struct ThreadPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `size` workers (minimum 1).
    pub(crate) fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("pathcopy-server-worker-{i}"))
                    .spawn(move || loop {
                        // Holding the lock only for the recv keeps job
                        // pickup serialized but execution parallel.
                        let job = match receiver.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => return,
                        };
                        match job {
                            // A panicking job must not take its worker
                            // with it — the pool's capacity would shrink
                            // silently until the server stops serving.
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            // Channel closed: the pool is shutting down.
                            Err(_) => return,
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Queues `job` for execution on some worker.
    pub(crate) fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool alive")
            .send(Box::new(job))
            .expect("workers alive");
    }
}

impl Drop for ThreadPool {
    /// Closes the job channel and joins every worker; queued jobs run to
    /// completion first.
    fn drop(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_jobs_run_and_drop_joins() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(4);
            assert_eq!(pool.workers.len(), 4);
            for _ in 0..100 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop waits for the queue to drain.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_size_rounds_up_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.workers.len(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.store(7, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("job blew up"));
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        // The single worker must survive to run this.
        pool.execute(move || {
            d.store(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn jobs_run_concurrently_across_workers() {
        use std::sync::Barrier;
        let pool = ThreadPool::new(2);
        let barrier = Arc::new(Barrier::new(2));
        // Both jobs block on the same barrier: they can only finish if
        // they run on two workers at once.
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            pool.execute(move || {
                barrier.wait();
            });
        }
        drop(pool); // joins — would deadlock if the pool were serial
    }
}
