//! The bounded submission queue: admission control at the front, dynamic
//! batch formation at the back.
//!
//! [`TaggedQueue`] is one `Mutex<VecDeque>` plus two condvars; producers
//! block (or bounce, via [`TaggedQueue::try_push`]) when the queue is at
//! capacity, and worker threads pull *batches*: the first item is waited
//! for indefinitely, then up to `max_wait` is spent coalescing more items
//! until `max_batch` is reached. Closing the queue wakes everyone;
//! already-accepted items are still handed out so a shutdown drains
//! instead of dropping work.
//!
//! Every item carries a tag (the serving engine uses
//! [`ModelId`](crate::ModelId)), one global FIFO keeps admission order
//! across all tags, and [`TaggedQueue::pop_batch_grouped`] coalesces a
//! batch only from items sharing the leader's `(tag, secondary key)`
//! pair. The queue additionally enforces **per-tag admission quotas**
//! ([`TaggedQueue::set_quota`]): a tag may occupy at most its quota of
//! the shared capacity, so one flooding model sheds load with a typed
//! [`PushError::QuotaExceeded`] instead of consuming every slot and
//! starving other models of queue space.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push was not accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was at capacity; the item is handed back.
    Full(T),
    /// The item's tag is at its per-tag occupancy quota
    /// ([`TaggedQueue::set_quota`]); the item is handed back. Quota
    /// rejections are immediate even on blocking pushes — they shed load
    /// from the flooding tag instead of parking it on capacity that
    /// rightfully belongs to other tags.
    QuotaExceeded(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

struct TaggedState<Tag, T> {
    items: VecDeque<(Tag, T)>,
    /// Live per-tag occupancy (entries removed when they drop to zero).
    occupancy: HashMap<Tag, usize>,
    /// Per-tag admission caps; absent tags are bounded only by the
    /// shared capacity.
    quotas: HashMap<Tag, usize>,
    closed: bool,
    /// High-water mark of the queue depth.
    peak_depth: usize,
}

impl<Tag: Copy + Eq + Hash, T> TaggedState<Tag, T> {
    fn admit(&mut self, tag: Tag, item: T) -> usize {
        self.items.push_back((tag, item));
        *self.occupancy.entry(tag).or_insert(0) += 1;
        let depth = self.items.len();
        self.peak_depth = self.peak_depth.max(depth);
        depth
    }

    fn release(&mut self, tag: Tag) {
        if let Some(count) = self.occupancy.get_mut(&tag) {
            *count -= 1;
            if *count == 0 {
                self.occupancy.remove(&tag);
            }
        }
    }

    fn over_quota(&self, tag: Tag) -> bool {
        match self.quotas.get(&tag) {
            Some(&quota) => self.occupancy.get(&tag).copied().unwrap_or(0) >= quota,
            None => false,
        }
    }
}

/// A bounded MPMC queue whose items carry a routing tag — the multi-model
/// submission queue.
///
/// All tags share **one** FIFO and one capacity, so admission order (and
/// therefore fairness) is global: the oldest item in the queue always
/// leads the next batch, whatever its tag, and a model under light load
/// can never be starved by a model under heavy load — of *batching
/// turns* by the leader rule, and of *queue space* by per-tag occupancy
/// quotas ([`TaggedQueue::set_quota`]). Batches never mix tags:
/// [`TaggedQueue::pop_batch_grouped`] coalesces only items whose
/// `(tag, secondary key)` pair matches the leader's, leaving everything
/// else in place for other consumers.
pub struct TaggedQueue<Tag, T> {
    state: Mutex<TaggedState<Tag, T>>,
    /// Signalled when an item arrives or the queue closes.
    nonempty: Condvar,
    /// Signalled when space frees up or the queue closes.
    space: Condvar,
    capacity: usize,
}

impl<Tag: Copy + Eq + Hash, T> TaggedQueue<Tag, T> {
    /// A tagged queue admitting at most `capacity` items across all tags.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(TaggedState {
                items: VecDeque::new(),
                occupancy: HashMap::new(),
                quotas: HashMap::new(),
                closed: false,
                peak_depth: 0,
            }),
            nonempty: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Caps how many queued items `tag` may occupy at once (clamped to a
    /// minimum of 1); `None` removes the cap. A push that would exceed
    /// the cap bounces with [`PushError::QuotaExceeded`] — immediately,
    /// even on [`TaggedQueue::push_blocking`] — so a flooding tag sheds
    /// load instead of consuming the capacity other tags depend on.
    pub fn set_quota(&self, tag: Tag, quota: Option<usize>) {
        let mut state = self.state.lock().expect("queue lock");
        match quota {
            Some(q) => {
                state.quotas.insert(tag, q.max(1));
            }
            None => {
                state.quotas.remove(&tag);
            }
        }
    }

    /// Current queued occupancy of one tag.
    pub fn tag_depth(&self, tag: Tag) -> usize {
        self.state.lock().expect("queue lock").occupancy.get(&tag).copied().unwrap_or(0)
    }

    /// Admits a tagged item if there is space and the tag is under its
    /// quota, returning the queue depth after the push.
    ///
    /// # Errors
    ///
    /// [`PushError::QuotaExceeded`] at the tag's occupancy cap,
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`TaggedQueue::close`] — all hand back the item.
    pub fn try_push(&self, tag: Tag, item: T) -> Result<usize, PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.over_quota(tag) {
            return Err(PushError::QuotaExceeded(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        let depth = state.admit(tag, item);
        drop(state);
        self.nonempty.notify_one();
        Ok(depth)
    }

    /// Admits a tagged item, blocking while the *shared* queue is at
    /// capacity (backpressure), and returns the queue depth after the
    /// push. A tag at its occupancy quota is **not** blocked — it bounces
    /// immediately, because waiting would let the flooding tag camp on
    /// capacity the quota exists to protect.
    ///
    /// # Errors
    ///
    /// [`PushError::QuotaExceeded`] at the tag's occupancy cap (checked
    /// before and after any capacity wait), [`PushError::Closed`] when
    /// the queue closes before space appears.
    pub fn push_blocking(&self, tag: Tag, item: T) -> Result<usize, PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.over_quota(tag) {
                return Err(PushError::QuotaExceeded(item));
            }
            if state.items.len() < self.capacity {
                break;
            }
            state = self.space.wait(state).expect("queue lock");
        }
        let depth = state.admit(tag, item);
        drop(state);
        self.nonempty.notify_one();
        Ok(depth)
    }

    /// Pulls the next same-tag batch with one batching policy for every
    /// tag — [`TaggedQueue::pop_batch_by`] with constant `max_batch` and
    /// a tag-independent key.
    ///
    /// Returns `None` only when the queue is closed **and** drained.
    pub fn pop_batch_grouped<K: Eq>(
        &self,
        max_batch: usize,
        max_wait: Duration,
        key: impl Fn(&T) -> K,
    ) -> Option<(Tag, Vec<T>)> {
        self.pop_batch_by(|_| max_batch, max_wait, |_, item| key(item))
    }

    /// Pulls the next same-tag batch under **per-tag batching policy**:
    /// the globally oldest item leads unconditionally (no tag can starve
    /// another of batching turns), and the leader's tag then determines
    /// both the batch cap (`max_batch(tag)`, floored at 1) and the
    /// secondary grouping key (`key(tag, item)` — the serving engine uses
    /// each model's own length bucket). The backlog, plus up to
    /// `max_wait` of stragglers, is coalesced from items matching the
    /// leader's `(tag, key)` pair; everything else keeps its FIFO
    /// position for other consumers.
    ///
    /// Returns `None` only when the queue is closed **and** drained.
    pub fn pop_batch_by<K: Eq>(
        &self,
        max_batch: impl Fn(Tag) -> usize,
        max_wait: Duration,
        key: impl Fn(Tag, &T) -> K,
    ) -> Option<(Tag, Vec<T>)> {
        let mut state = self.state.lock().expect("queue lock");
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state = self.nonempty.wait(state).expect("queue lock");
        }
        let (tag, leader) = state.items.pop_front().expect("queue is non-empty");
        state.release(tag);
        let max_batch = max_batch(tag).max(1);
        let group = key(tag, &leader);
        let mut batch = Vec::with_capacity(max_batch);
        batch.push(leader);
        // Scan the backlog for group members; non-members keep their
        // position (the next pop's leader is still the oldest item).
        let mut idx = 0;
        while batch.len() < max_batch && idx < state.items.len() {
            if state.items[idx].0 == tag && key(tag, &state.items[idx].1) == group {
                let (_, item) = state.items.remove(idx).expect("index in bounds");
                state.release(tag);
                batch.push(item);
            } else {
                idx += 1;
            }
        }
        // The drain freed producer slots; wake blocked producers *before*
        // the coalescing wait (they acquire the lock once `wait_timeout`
        // releases it), so backpressured traffic can join this batch
        // instead of structurally never arriving.
        self.space.notify_all();
        // Dynamic coalescing: give matching stragglers up to `max_wait`
        // to join an underfull batch (a closed queue stops waiting
        // immediately).
        if batch.len() < max_batch && !max_wait.is_zero() {
            let deadline = Instant::now() + max_wait;
            while batch.len() < max_batch && !state.closed {
                // Each wake re-scans the (bounded) backlog: the initial
                // scan already removed matches, so this only finds new
                // arrivals.
                let mut took = false;
                let mut idx = 0;
                while batch.len() < max_batch && idx < state.items.len() {
                    if state.items[idx].0 == tag && key(tag, &state.items[idx].1) == group {
                        let (_, item) = state.items.remove(idx).expect("index in bounds");
                        state.release(tag);
                        batch.push(item);
                        self.space.notify_one();
                        took = true;
                    } else {
                        idx += 1;
                    }
                }
                if took {
                    continue;
                }
                // A wake consumed for a non-matching item must be
                // forwarded: pushes signal `notify_one`, and another
                // consumer may be parked on the leader wait while we
                // alone were woken for work we won't take.
                if !state.items.is_empty() {
                    self.nonempty.notify_one();
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) =
                    self.nonempty.wait_timeout(state, deadline - now).expect("queue lock");
                state = guard;
                if timeout.timed_out()
                    && !state.items.iter().any(|(t, i)| *t == tag && key(tag, i) == group)
                {
                    break;
                }
            }
        }
        // Same wake-forwarding on exit: if non-members remain queued,
        // make sure some consumer is (re)notified about them.
        let leftovers = !state.items.is_empty();
        drop(state);
        self.space.notify_all();
        if leftovers {
            self.nonempty.notify_one();
        }
        Some((tag, batch))
    }

    /// Stops admitting work and wakes all blocked producers and
    /// consumers; admitted items remain poppable.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.nonempty.notify_all();
        self.space.notify_all();
    }

    /// Current queue depth across all tags.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest queue depth observed so far.
    pub fn peak_depth(&self) -> usize {
        self.state.lock().expect("queue lock").peak_depth
    }

    /// Whether [`TaggedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops the next batch of one tag-0 queue, ignoring the tag.
    fn pop(q: &TaggedQueue<u8, u32>, max_batch: usize, max_wait: Duration) -> Option<Vec<u32>> {
        q.pop_batch_grouped(max_batch, max_wait, |_| 0u8).map(|(_, batch)| batch)
    }

    #[test]
    fn try_push_enforces_capacity_then_admits_after_pop() {
        let q = TaggedQueue::new(2);
        assert_eq!(q.try_push(0, 1), Ok(1));
        assert_eq!(q.try_push(0, 2), Ok(2));
        assert_eq!(q.try_push(0, 3), Err(PushError::Full(3)));
        assert_eq!(q.peak_depth(), 2);
        assert_eq!(pop(&q, 1, Duration::ZERO).unwrap(), vec![1]);
        assert_eq!(q.try_push(0, 3), Ok(2));
    }

    #[test]
    fn pop_batch_coalesces_up_to_max_batch() {
        let q = TaggedQueue::new(8);
        for i in 0..5 {
            q.try_push(0, i).unwrap();
        }
        assert_eq!(pop(&q, 3, Duration::ZERO).unwrap(), vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
        assert_eq!(pop(&q, 8, Duration::ZERO).unwrap(), vec![3, 4]);
    }

    #[test]
    fn grouped_pop_collects_matching_items_and_preserves_the_rest() {
        let q = TaggedQueue::new(16);
        for item in [10, 21, 12, 23, 14, 25] {
            q.try_push(0u8, item).unwrap();
        }
        // Key = tens digit: the leader (10) groups with 12 and 14; the
        // odd group keeps its order for the next consumer.
        let (_, batch) = q.pop_batch_grouped(8, Duration::ZERO, |i| i / 10).unwrap();
        assert_eq!(batch, vec![10, 12, 14]);
        let (_, batch) = q.pop_batch_grouped(8, Duration::ZERO, |i| i / 10).unwrap();
        assert_eq!(batch, vec![21, 23, 25]);
    }

    #[test]
    fn grouped_pop_respects_max_batch() {
        let q = TaggedQueue::new(16);
        for item in [1, 2, 3, 4] {
            q.try_push(0u8, item).unwrap();
        }
        assert_eq!(pop(&q, 2, Duration::ZERO).unwrap(), vec![1, 2]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn grouped_pop_straggler_wait_only_admits_matches() {
        use std::sync::Arc;
        let q = Arc::new(TaggedQueue::new(16));
        q.try_push(0u8, 10u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                // A non-matching item, then a matching one.
                q.try_push(0, 25).unwrap();
                q.try_push(0, 12).unwrap();
            })
        };
        let (_, batch) = q.pop_batch_grouped(2, Duration::from_secs(10), |i| i / 10).unwrap();
        assert_eq!(batch, vec![10, 12]);
        producer.join().unwrap();
        assert_eq!(pop(&q, 8, Duration::ZERO).unwrap(), vec![25]);
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains_pops() {
        let q = TaggedQueue::new(4);
        q.try_push(0u8, "a").unwrap();
        q.try_push(0, "b").unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push(0, "c"), Err(PushError::Closed("c")));
        assert_eq!(q.push_blocking(0, "d"), Err(PushError::Closed("d")));
        // Accepted items are still handed out…
        let drained = q.pop_batch_grouped(8, Duration::from_secs(5), |_| 0u8);
        assert_eq!(drained, Some((0, vec!["a", "b"])));
        // …and only a drained+closed queue returns None.
        assert!(q.pop_batch_grouped(8, Duration::from_secs(5), |_| 0u8).is_none());
    }

    #[test]
    fn blocked_producer_resumes_when_space_frees() {
        use std::sync::Arc;
        let q = Arc::new(TaggedQueue::new(1));
        q.try_push(0, 0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(0, 1).is_ok())
        };
        // The producer is blocked on the full queue until a pop frees it.
        assert_eq!(pop(&q, 1, Duration::ZERO).unwrap(), vec![0]);
        assert!(producer.join().unwrap());
        assert_eq!(pop(&q, 1, Duration::ZERO).unwrap(), vec![1]);
    }

    #[test]
    fn backpressured_producer_joins_the_coalescing_window() {
        use std::sync::Arc;
        // Capacity below max_batch: the third item can only enter the
        // batch if the pop releases producer slots before (not after)
        // its straggler wait.
        let q = Arc::new(TaggedQueue::new(2));
        q.try_push(0, 0).unwrap();
        q.try_push(0, 1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(0, 2).is_ok())
        };
        // Regardless of whether the producer has blocked yet, the
        // coalescing window must admit its item.
        assert_eq!(pop(&q, 3, Duration::from_secs(10)).unwrap(), vec![0, 1, 2]);
        assert!(producer.join().unwrap());
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        use std::sync::Arc;
        let q: Arc<TaggedQueue<u8, u32>> = Arc::new(TaggedQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || pop(&q, 4, Duration::from_secs(60)))
        };
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn tagged_pop_never_mixes_tags_and_keeps_global_fifo_leadership() {
        let q: TaggedQueue<u8, u32> = TaggedQueue::new(16);
        // Interleaved two-model traffic; payload = admission order.
        for (tag, item) in [(0u8, 0u32), (1, 1), (0, 2), (1, 3), (1, 4), (0, 5)] {
            q.try_push(tag, item).unwrap();
        }
        // Leader is the global head (tag 0); only tag-0 items join.
        let (tag, batch) = q.pop_batch_grouped(8, Duration::ZERO, |_| 0u8).unwrap();
        assert_eq!((tag, batch), (0, vec![0, 2, 5]));
        // The next leader is the oldest remaining item (tag 1), order kept.
        let (tag, batch) = q.pop_batch_grouped(8, Duration::ZERO, |_| 0u8).unwrap();
        assert_eq!((tag, batch), (1, vec![1, 3, 4]));
        assert!(q.is_empty());
    }

    #[test]
    fn tagged_pop_groups_by_tag_and_secondary_key() {
        let q: TaggedQueue<u8, u32> = TaggedQueue::new(16);
        // Same tag, two "length buckets" (key = item / 10).
        for (tag, item) in [(0u8, 10u32), (0, 21), (0, 12), (1, 13), (0, 25)] {
            q.try_push(tag, item).unwrap();
        }
        let (tag, batch) = q.pop_batch_grouped(8, Duration::ZERO, |i| i / 10).unwrap();
        assert_eq!((tag, batch), (0, vec![10, 12])); // not 13: different tag
        let (tag, batch) = q.pop_batch_grouped(8, Duration::ZERO, |i| i / 10).unwrap();
        assert_eq!((tag, batch), (0, vec![21, 25]));
        let (tag, batch) = q.pop_batch_grouped(8, Duration::ZERO, |i| i / 10).unwrap();
        assert_eq!((tag, batch), (1, vec![13]));
    }

    #[test]
    fn quota_caps_per_tag_occupancy_without_touching_other_tags() {
        let q: TaggedQueue<u8, u32> = TaggedQueue::new(8);
        q.set_quota(0, Some(2));
        assert_eq!(q.try_push(0, 10), Ok(1));
        assert_eq!(q.try_push(0, 11), Ok(2));
        // Tag 0 is at quota: both push flavours bounce with the typed
        // rejection — blocking would let the flooder camp on capacity.
        assert_eq!(q.try_push(0, 12), Err(PushError::QuotaExceeded(12)));
        assert_eq!(q.push_blocking(0, 13), Err(PushError::QuotaExceeded(13)));
        // Other tags still have the rest of the capacity.
        for item in 20..26 {
            assert!(q.try_push(1, item).is_ok(), "tag 1 bounced at item {item}");
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.tag_depth(0), 2);
        assert_eq!(q.tag_depth(1), 6);
        // Queue now full: tag 1 (no quota) gets Full, tag 0 still gets
        // the more specific QuotaExceeded.
        assert_eq!(q.try_push(1, 99), Err(PushError::Full(99)));
        assert_eq!(q.try_push(0, 99), Err(PushError::QuotaExceeded(99)));
        // Popping tag-0 items releases quota.
        let (tag, batch) = q.pop_batch_grouped(8, Duration::ZERO, |_| 0u8).unwrap();
        assert_eq!((tag, batch), (0, vec![10, 11]));
        assert_eq!(q.tag_depth(0), 0);
        assert_eq!(q.try_push(0, 14), Ok(7));
    }

    #[test]
    fn quota_can_be_raised_cleared_and_is_floored_at_one() {
        let q: TaggedQueue<u8, u32> = TaggedQueue::new(8);
        q.set_quota(0, Some(0)); // clamped to 1
        assert_eq!(q.try_push(0, 1), Ok(1));
        assert_eq!(q.try_push(0, 2), Err(PushError::QuotaExceeded(2)));
        q.set_quota(0, Some(3));
        assert_eq!(q.try_push(0, 2), Ok(2));
        assert_eq!(q.try_push(0, 3), Ok(3));
        assert_eq!(q.try_push(0, 4), Err(PushError::QuotaExceeded(4)));
        q.set_quota(0, None);
        assert_eq!(q.try_push(0, 4), Ok(4));
    }

    #[test]
    fn blocked_producer_rechecks_its_quota_when_space_appears() {
        use std::sync::Arc;
        // The shared queue is full (two tag-1 items ahead of one tag-0
        // item), so a blocking tag-0 push parks on capacity.
        let q: Arc<TaggedQueue<u8, u32>> = Arc::new(TaggedQueue::new(3));
        q.set_quota(0, Some(2));
        q.try_push(1, 2).unwrap();
        q.try_push(1, 3).unwrap();
        q.try_push(0, 1).unwrap();
        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(0, 4))
        };
        // While the producer waits, tighten tag 0's quota to its current
        // occupancy, then free a tag-1 slot. The woken producer must
        // re-check the quota and shed — deterministically, because the
        // tag-0 occupancy can only change through this thread.
        std::thread::sleep(Duration::from_millis(20));
        q.set_quota(0, Some(1));
        let (tag, batch) = q.pop_batch_by(|_| 1, Duration::ZERO, |_, _| 0u8).unwrap();
        assert_eq!((tag, batch), (1, vec![2]));
        assert_eq!(blocked.join().unwrap(), Err(PushError::QuotaExceeded(4)));
    }

    #[test]
    fn per_tag_batch_caps_apply_to_the_leaders_tag() {
        let q: TaggedQueue<u8, u32> = TaggedQueue::new(16);
        for (tag, item) in [(0u8, 0u32), (0, 1), (0, 2), (1, 3), (1, 4), (1, 5)] {
            q.try_push(tag, item).unwrap();
        }
        // Tag 0 batches at most 1; tag 1 at most 8.
        let max_batch = |tag: u8| if tag == 0 { 1 } else { 8 };
        let (tag, batch) = q.pop_batch_by(max_batch, Duration::ZERO, |_, _| 0u8).unwrap();
        assert_eq!((tag, batch), (0, vec![0]));
        let (tag, batch) = q.pop_batch_by(max_batch, Duration::ZERO, |_, _| 0u8).unwrap();
        assert_eq!((tag, batch), (0, vec![1]));
        let (tag, batch) = q.pop_batch_by(max_batch, Duration::ZERO, |_, _| 0u8).unwrap();
        assert_eq!((tag, batch), (0, vec![2]));
        // Tag 1 leads next and coalesces its whole backlog.
        let (tag, batch) = q.pop_batch_by(max_batch, Duration::ZERO, |_, _| 0u8).unwrap();
        assert_eq!((tag, batch), (1, vec![3, 4, 5]));
    }

    #[test]
    fn tagged_push_errors_hand_back_the_item() {
        let q: TaggedQueue<u8, &str> = TaggedQueue::new(1);
        q.try_push(0, "a").unwrap();
        assert_eq!(q.try_push(1, "b"), Err(PushError::Full("b")));
        q.close();
        assert_eq!(q.push_blocking(0, "c"), Err(PushError::Closed("c")));
        assert_eq!(q.pop_batch_grouped(4, Duration::ZERO, |_| 0u8), Some((0, vec!["a"])));
        assert_eq!(q.pop_batch_grouped(4, Duration::ZERO, |_| 0u8), None);
    }
}
