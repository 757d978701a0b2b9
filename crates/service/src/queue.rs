//! Bounded priority job queue feeding the machine-wide scheduler.
//!
//! * **Bounded** — `push` never blocks; a full queue is reported to the
//!   caller, which the HTTP layer turns into `429 Too Many Requests`
//!   (backpressure instead of unbounded memory growth).
//! * **Priority** — higher `priority` pops first; within a priority,
//!   deadline-earliest (a job with a deadline beats one without), and only
//!   then FIFO by admission sequence. The tie-break matters on a shared
//!   pool: two jobs of equal priority should drain in the order they must
//!   *finish*, not the order they happened to arrive.
//! * **Cancellation** — [`JobTicket::cancel`] marks a job; cancelled jobs
//!   still in the queue are discarded at pop time, and jobs already
//!   running can poll their ticket.
//! * Per-job time budgets are *not* this module's concern beyond ordering:
//!   the server creates a [`lazymc_core::Deadline`] at push time, carries
//!   it in the payload, and hands its expiry instant here so queue wait
//!   counts against the budget *and* steers the drain order.

use crate::plock;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Push rejected: the queue is at capacity.
#[derive(Debug, PartialEq, Eq)]
pub struct QueueFull {
    pub capacity: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job queue full (capacity {})", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

/// Handle to a submitted job.
#[derive(Debug, Clone)]
pub struct JobTicket {
    pub id: u64,
    cancelled: Arc<AtomicBool>,
}

impl JobTicket {
    /// Marks the job cancelled. Queued jobs are dropped before running;
    /// running jobs observe [`JobTicket::is_cancelled`] if they poll.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

struct Queued<T> {
    priority: u8,
    deadline: Option<Instant>,
    seq: u64,
    id: u64,
    cancelled: Arc<AtomicBool>,
    payload: T,
}

/// Max-heap urgency of a deadline slot: an earlier deadline outranks a
/// later one, and any deadline outranks "no deadline" — an unbudgeted job
/// can always wait a little longer.
fn deadline_urgency(a: Option<Instant>, b: Option<Instant>) -> std::cmp::Ordering {
    use std::cmp::Ordering::*;
    match (a, b) {
        (Some(x), Some(y)) => y.cmp(&x), // earlier instant = greater urgency
        (Some(_), None) => Greater,
        (None, Some(_)) => Less,
        (None, None) => Equal,
    }
}

impl<T> PartialEq for Queued<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for Queued<T> {}
impl<T> PartialOrd for Queued<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Queued<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then deadline-earliest, then
        // *lower* sequence (FIFO). The same urgency order the scheduler
        // uses for in-flight tasks — one definition of "more urgent" from
        // admission to subtree drain.
        self.priority
            .cmp(&other.priority)
            .then(deadline_urgency(self.deadline, other.deadline))
            .then(other.seq.cmp(&self.seq))
    }
}

/// A job handed out by [`JobQueue::try_pop`], with the ordering key it
/// held in the queue so the caller can reuse it as a scheduler task key.
pub struct Popped<T> {
    pub ticket: JobTicket,
    pub priority: u8,
    pub deadline: Option<Instant>,
    pub seq: u64,
    pub payload: T,
}

/// The queue. `T` is the job payload.
pub struct JobQueue<T> {
    heap: Mutex<BinaryHeap<Queued<T>>>,
    capacity: usize,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    pub rejected: AtomicU64,
    pub cancelled: AtomicU64,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `capacity` pending jobs (≥ 1).
    pub fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            heap: Mutex::new(BinaryHeap::new()),
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        }
    }

    /// Pre-reserves a ticket for a job that will be pushed with
    /// [`JobQueue::push_ticketed`]. Reserving first lets the caller
    /// register the job id elsewhere (e.g. the job store) *before* any
    /// worker can possibly pop the job — no completion/registration race.
    pub fn ticket(&self) -> JobTicket {
        JobTicket {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A ticket with a caller-chosen id, for journal replay: a recovered
    /// job keeps the id it was admitted under, so clients polling
    /// `GET /jobs/<id>` across a crash still find it. Bumps the id
    /// allocator past `id` so fresh tickets never collide with replays.
    pub fn ticket_for(&self, id: u64) -> JobTicket {
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        JobTicket {
            id,
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Admits a job under a pre-reserved ticket. `deadline` is the
    /// wall-clock instant the job's budget expires (if any); equal
    /// priorities drain deadline-earliest. Never blocks.
    pub fn push_ticketed(
        &self,
        priority: u8,
        deadline: Option<Instant>,
        ticket: &JobTicket,
        payload: T,
    ) -> Result<(), QueueFull> {
        lazymc_chaos::point!("queue.push");
        let mut heap = plock(&self.heap);
        if heap.len() >= self.capacity {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(QueueFull {
                capacity: self.capacity,
            });
        }
        heap.push(Queued {
            priority,
            deadline,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            id: ticket.id,
            cancelled: ticket.cancelled.clone(),
            payload,
        });
        Ok(())
    }

    /// The ordering key `(priority, deadline, seq)` of the most urgent
    /// *uncancelled* pending job, without removing it. This is what a
    /// pull-based scheduler source reports as its head-of-queue urgency.
    pub fn peek_key(&self) -> Option<(u8, Option<Instant>, u64)> {
        let mut heap = plock(&self.heap);
        // Reap cancelled heads so the reported key is a job that would
        // actually run; anything deeper stays until it surfaces.
        while let Some(head) = heap.peek() {
            if head.cancelled.load(Ordering::Relaxed) {
                heap.pop();
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            return Some((head.priority, head.deadline, head.seq));
        }
        None
    }

    /// Non-blocking pop: the most urgent runnable job, or `None` if the
    /// queue is momentarily empty. Cancelled jobs are discarded here, not
    /// returned. It never waits — the scheduler's workers poll through
    /// their own doorbell, not a queue-side condvar.
    pub fn try_pop(&self) -> Option<Popped<T>> {
        lazymc_chaos::point!("queue.pop");
        let mut heap = plock(&self.heap);
        while let Some(job) = heap.pop() {
            if job.cancelled.load(Ordering::Relaxed) {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            return Some(Popped {
                ticket: JobTicket {
                    id: job.id,
                    cancelled: job.cancelled,
                },
                priority: job.priority,
                deadline: job.deadline,
                seq: job.seq,
                payload: job.payload,
            });
        }
        None
    }

    /// Jobs currently pending (cancelled-but-unreaped jobs included).
    pub fn depth(&self) -> usize {
        plock(&self.heap).len()
    }

    /// Pending depth broken out by priority level, ascending by priority.
    /// Feeds the per-priority queue-depth gauge on `/metrics`.
    pub fn depth_by_priority(&self) -> Vec<(u8, usize)> {
        let heap = plock(&self.heap);
        let mut counts = std::collections::BTreeMap::new();
        for job in heap.iter() {
            if !job.cancelled.load(Ordering::Relaxed) {
                *counts.entry(job.priority).or_insert(0usize) += 1;
            }
        }
        counts.into_iter().collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Admits `payload` under a fresh ticket with no deadline, as the
    /// server admits an unbudgeted job.
    fn admit<T>(q: &JobQueue<T>, priority: u8, payload: T) -> Result<JobTicket, QueueFull> {
        let ticket = q.ticket();
        q.push_ticketed(priority, None, &ticket, payload)
            .map(|()| ticket)
    }

    #[test]
    fn priority_then_fifo_order() {
        let q = JobQueue::new(10);
        admit(&q, 1, "low-1").unwrap();
        admit(&q, 5, "high-1").unwrap();
        admit(&q, 1, "low-2").unwrap();
        admit(&q, 5, "high-2").unwrap();
        let order: Vec<&str> = (0..4).map(|_| q.try_pop().unwrap().payload).collect();
        assert_eq!(order, vec!["high-1", "high-2", "low-1", "low-2"]);
    }

    #[test]
    fn backpressure_when_full() {
        let q = JobQueue::new(2);
        admit(&q, 0, 1).unwrap();
        admit(&q, 0, 2).unwrap();
        let err = admit(&q, 0, 3).unwrap_err();
        assert_eq!(err.capacity, 2);
        assert_eq!(q.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(q.depth(), 2);
        // Draining one readmits.
        q.try_pop().unwrap();
        assert!(admit(&q, 0, 3).is_ok());
    }

    #[test]
    fn cancelled_jobs_are_skipped() {
        let q = JobQueue::new(10);
        let t1 = admit(&q, 3, "a").unwrap();
        admit(&q, 2, "b").unwrap();
        t1.cancel();
        assert!(t1.is_cancelled());
        let popped = q.try_pop().unwrap();
        assert_eq!(popped.payload, "b", "cancelled job must not run");
        assert_eq!(q.cancelled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn equal_priority_drains_deadline_earliest() {
        use std::time::Duration;
        let q = JobQueue::new(10);
        let now = Instant::now();
        // Submitted first but with the *latest* deadline; a later arrival
        // with a tighter budget must overtake it. No deadline sorts last.
        let t_late = q.ticket();
        q.push_ticketed(3, Some(now + Duration::from_secs(60)), &t_late, "late")
            .unwrap();
        let t_none = q.ticket();
        q.push_ticketed(3, None, &t_none, "none").unwrap();
        let t_soon = q.ticket();
        q.push_ticketed(3, Some(now + Duration::from_secs(1)), &t_soon, "soon")
            .unwrap();
        // Higher priority still beats any deadline.
        let t_hi = q.ticket();
        q.push_ticketed(7, None, &t_hi, "hi").unwrap();
        let order: Vec<&str> = (0..4).map(|_| q.try_pop().unwrap().payload).collect();
        assert_eq!(order, vec!["hi", "soon", "late", "none"]);
    }

    #[test]
    fn peek_key_matches_next_pop_and_reaps_cancelled_heads() {
        use std::time::Duration;
        let q = JobQueue::new(10);
        assert!(q.peek_key().is_none());
        let soon = Instant::now() + Duration::from_millis(5);
        let t_head = q.ticket();
        q.push_ticketed(5, Some(soon), &t_head, "head").unwrap();
        let t_tail = q.ticket();
        q.push_ticketed(5, None, &t_tail, "tail").unwrap();
        let (p, d, _) = q.peek_key().unwrap();
        assert_eq!((p, d), (5, Some(soon)));
        // Cancelling the head makes peek fall through to the next job —
        // and reap the cancelled one so depth reflects runnable work.
        t_head.cancel();
        let (p, d, _) = q.peek_key().unwrap();
        assert_eq!((p, d), (5, None));
        assert_eq!(q.depth(), 1);
        let got = q.try_pop().unwrap();
        assert_eq!(got.payload, "tail");
        assert_eq!(got.ticket.id, t_tail.id);
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn depth_by_priority_counts_runnable_jobs() {
        let q = JobQueue::new(10);
        admit(&q, 1, "a").unwrap();
        admit(&q, 1, "b").unwrap();
        let t = admit(&q, 4, "c").unwrap();
        admit(&q, 9, "d").unwrap();
        assert_eq!(q.depth_by_priority(), vec![(1, 2), (4, 1), (9, 1)]);
        t.cancel();
        assert_eq!(q.depth_by_priority(), vec![(1, 2), (9, 1)]);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_jobs() {
        let q = Arc::new(JobQueue::<u64>::new(1_000));
        let consumed = Arc::new(AtomicU64::new(0));
        let produced = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    while admit(&q, (p % 3) as u8, p * 1000 + i).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            let consumed = consumed.clone();
            let produced = produced.clone();
            consumers.push(std::thread::spawn(move || loop {
                // Read the flag before popping: once every producer has
                // finished, an empty pop means the queue is drained.
                let finished = produced.load(Ordering::SeqCst);
                match q.try_pop() {
                    Some(_) => {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                    None if finished => break,
                    None => std::thread::yield_now(),
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        produced.store(true, Ordering::SeqCst);
        for h in consumers {
            h.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Relaxed), 400);
    }
}
