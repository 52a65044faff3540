//! Bounded MPSC channels with explicit backpressure accounting.
//!
//! The collector service feeds each ingest worker through one of these
//! channels: producers block when the buffer is full (the backpressure
//! event is *counted*, so the bench harness can report how often the
//! pipeline ran hot), and the consumer drains in batches to amortize
//! lock traffic. The implementation is a deliberately small
//! Mutex+Condvar ring — no external channel crates.
//!
//! **Wake rule.** A condvar notify is a syscall even when nobody waits,
//! and the collector's ingest worker never parks: it polls
//! [`Receiver::try_recv_batch`] and yields. So the mutex guards the
//! queue *and* two counters, `recv_waiting` and `send_waiting`, that a
//! blocking call increments right before `Condvar::wait` and decrements
//! right after. `send`, `recv` and `try_recv_batch` read the matching
//! counter under the lock and notify only when it is non-zero. A waiter
//! registers under the same lock it releases atomically in `wait`, so
//! any later queue change sees it and no wakeup is lost. The common case
//! — nobody parked — costs one short critical section per call and no
//! syscall. The disconnect paths (the last [`Sender`] or the
//! [`Receiver`] dropping) notify unconditionally.
//!
//! Semantics:
//!
//! * [`Sender::send`] blocks while the buffer holds `capacity` items and
//!   fails with [`SendError`] once the receiver is gone.
//! * [`Receiver::recv`] blocks until an item arrives and returns `None`
//!   once every sender has dropped *and* the buffer is drained.
//! * [`Receiver::try_recv_batch`] moves up to `max` items without
//!   blocking — the collector's hot path.
//! * [`Sender::backpressure_events`] counts the times a send had to
//!   wait for space (shared across clones of the channel).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The workspace's vendored `parking_lot` stand-in has no `Condvar`,
/// so this module uses the std primitives directly with `parking_lot`'s
/// non-poisoning semantics (a poisoned lock is recovered, not
/// propagated — a panicking producer must not wedge the pipeline).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The receiver disconnected; the payload is handed back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Everything the channel mutex guards: the ring and the number of
/// threads parked on each condvar.
struct State<T> {
    queue: VecDeque<T>,
    /// Threads parked in [`Receiver::recv`] waiting for an item.
    recv_waiting: usize,
    /// Threads parked in [`Sender::send`] waiting for space.
    send_waiting: usize,
}

struct ChannelInner<T> {
    state: Mutex<State<T>>,
    /// Signalled when the queue gains an item while a receiver is
    /// parked, or when the channel closes.
    not_empty: Condvar,
    /// Signalled when the queue loses an item while a sender is parked,
    /// or when the receiver drops.
    not_full: Condvar,
    capacity: usize,
    senders: AtomicUsize,
    receiver_alive: AtomicUsize,
    backpressure: AtomicU64,
}

/// Producer half of a bounded channel; cloneable (MPSC).
pub struct Sender<T> {
    inner: Arc<ChannelInner<T>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &self.inner.capacity)
            .finish_non_exhaustive()
    }
}

/// Consumer half of a bounded channel; single owner.
pub struct Receiver<T> {
    inner: Arc<ChannelInner<T>>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("capacity", &self.inner.capacity)
            .finish_non_exhaustive()
    }
}

/// Create a bounded channel with room for `capacity` in-flight items.
///
/// Panics if `capacity == 0` — a zero-capacity rendezvous channel is
/// never what the coalescing pipeline wants.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be positive");
    let inner = Arc::new(ChannelInner {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            recv_waiting: 0,
            send_waiting: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
        senders: AtomicUsize::new(1),
        receiver_alive: AtomicUsize::new(1),
        backpressure: AtomicU64::new(0),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueue `value`, blocking while the channel is at capacity.
    ///
    /// Each blocking episode increments the shared backpressure counter
    /// once. Returns the value if the receiver has disconnected.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let inner = &*self.inner;
        let mut state = lock(&inner.state);
        if state.queue.len() >= inner.capacity {
            inner.backpressure.fetch_add(1, Ordering::Relaxed);
            while state.queue.len() >= inner.capacity {
                if inner.receiver_alive.load(Ordering::Acquire) == 0 {
                    return Err(SendError(value));
                }
                state.send_waiting += 1;
                state = inner
                    .not_full
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
                state.send_waiting -= 1;
            }
        }
        if inner.receiver_alive.load(Ordering::Acquire) == 0 {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        let wake = state.recv_waiting > 0;
        drop(state);
        if wake {
            inner.not_empty.notify_one();
        }
        Ok(())
    }

    /// Times a `send` found the channel full and had to wait.
    pub fn backpressure_events(&self) -> u64 {
        self.inner.backpressure.load(Ordering::Relaxed)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender: wake a receiver blocked in recv() so it can
            // observe the disconnect.
            let _guard = lock(&self.inner.state);
            self.inner.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue one item, blocking until one arrives. Returns `None`
    /// once all senders have dropped and the buffer is empty.
    pub fn recv(&self) -> Option<T> {
        let inner = &*self.inner;
        let mut state = lock(&inner.state);
        loop {
            if let Some(value) = state.queue.pop_front() {
                let wake = state.send_waiting > 0;
                drop(state);
                if wake {
                    inner.not_full.notify_one();
                }
                return Some(value);
            }
            if inner.senders.load(Ordering::Acquire) == 0 {
                return None;
            }
            state.recv_waiting += 1;
            state = inner
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
            state.recv_waiting -= 1;
        }
    }

    /// Move up to `max` items into `out` without blocking; returns the
    /// number moved. The collector's batch-drain hot path.
    pub fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let inner = &*self.inner;
        let mut state = lock(&inner.state);
        let take = state.queue.len().min(max);
        out.extend(state.queue.drain(..take));
        let wake = take > 0 && state.send_waiting > 0;
        drop(state);
        if wake {
            inner.not_full.notify_all();
        }
        take
    }

    /// True once every sender has dropped (items may still be queued).
    pub fn is_disconnected(&self) -> bool {
        self.inner.senders.load(Ordering::Acquire) == 0
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.inner.state).queue.len()
    }

    /// True when no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times a `send` found the channel full and had to wait.
    pub fn backpressure_events(&self) -> u64 {
        self.inner.backpressure.load(Ordering::Relaxed)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.receiver_alive.store(0, Ordering::Release);
        let _guard = lock(&self.inner.state);
        self.inner.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// The handshake the wake-protocol tests use instead of a sleep:
    /// spin until `parked` reports a thread inside `Condvar::wait`. The
    /// counters change only under the channel lock, and a waiter holds
    /// that lock from its increment until `wait` releases it, so seeing
    /// a non-zero count here means the thread is parked (or is woken and
    /// re-taking the lock, about to re-check its condition).
    fn await_parked<T>(inner: &ChannelInner<T>, parked: impl Fn(&State<T>) -> usize) {
        while parked(&lock(&inner.state)) == 0 {
            thread::yield_now();
        }
    }

    fn parked_counts<T>(inner: &ChannelInner<T>) -> (usize, usize) {
        let state = lock(&inner.state);
        (state.recv_waiting, state.send_waiting)
    }

    #[test]
    fn parked_recv_is_woken_by_send() {
        let (tx, rx) = bounded::<usize>(4);
        thread::scope(|s| {
            let parked = s.spawn(|| rx.recv());
            await_parked(&tx.inner, |st| st.recv_waiting);
            tx.send(7).unwrap();
            assert_eq!(parked.join().unwrap(), Some(7));
        });
        assert_eq!(parked_counts(&rx.inner), (0, 0));
        assert_eq!(tx.backpressure_events(), 0);
    }

    #[test]
    fn parked_send_is_woken_by_batch_drain() {
        let (tx, rx) = bounded::<usize>(1);
        tx.send(0).unwrap();
        thread::scope(|s| {
            let parked = s.spawn(|| tx.send(1));
            await_parked(&rx.inner, |st| st.send_waiting);
            let mut out = Vec::new();
            assert_eq!(rx.try_recv_batch(&mut out, 8), 1);
            assert_eq!(out, vec![0]);
            assert_eq!(parked.join().unwrap(), Ok(()));
        });
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(parked_counts(&rx.inner), (0, 0));
        assert_eq!(tx.backpressure_events(), 1);
    }

    #[test]
    fn parked_send_is_woken_by_recv() {
        let (tx, rx) = bounded::<usize>(1);
        tx.send(0).unwrap();
        thread::scope(|s| {
            let parked = s.spawn(|| tx.send(1));
            await_parked(&rx.inner, |st| st.send_waiting);
            assert_eq!(rx.recv(), Some(0));
            assert_eq!(parked.join().unwrap(), Ok(()));
        });
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(parked_counts(&rx.inner), (0, 0));
        assert_eq!(tx.backpressure_events(), 1);
    }

    #[test]
    fn last_sender_drop_wakes_parked_recv_into_none() {
        let (tx, rx) = bounded::<usize>(2);
        let tx2 = tx.clone();
        thread::scope(|s| {
            let parked = s.spawn(|| rx.recv());
            await_parked(&rx.inner, |st| st.recv_waiting);
            // A clone remains, so the channel is still open and the
            // receiver stays parked.
            drop(tx);
            assert_eq!(parked_counts(&rx.inner), (1, 0));
            drop(tx2);
            assert_eq!(parked.join().unwrap(), None);
        });
        assert!(rx.is_disconnected());
    }

    #[test]
    fn receiver_drop_wakes_parked_send_into_error() {
        let (tx, rx) = bounded::<usize>(1);
        tx.send(0).unwrap();
        thread::scope(|s| {
            let parked = s.spawn(|| tx.send(1));
            await_parked(&tx.inner, |st| st.send_waiting);
            drop(rx);
            assert_eq!(parked.join().unwrap(), Err(SendError(1)));
        });
        assert_eq!(parked_counts(&tx.inner), (0, 0));
        assert_eq!(tx.backpressure_events(), 1);
    }

    #[test]
    fn delivers_in_order_and_signals_disconnect() {
        let (tx, rx) = bounded::<usize>(4);
        thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..100 {
                assert_eq!(rx.recv(), Some(i));
            }
            assert_eq!(rx.recv(), None);
        });
    }

    #[test]
    fn bounded_capacity_counts_backpressure() {
        let (tx, rx) = bounded::<usize>(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        thread::scope(|s| {
            let blocked = tx.clone();
            s.spawn(move || {
                // The channel is full: this send must block and count a
                // backpressure event before the drain below frees space.
                blocked.send(2).unwrap();
            });
            while tx.backpressure_events() == 0 {
                thread::yield_now();
            }
            let mut got = Vec::new();
            for _ in 0..3 {
                got.push(rx.recv().unwrap());
            }
            assert_eq!(got, vec![0, 1, 2]);
        });
        assert!(tx.backpressure_events() >= 1);
        assert!(rx.is_empty());
    }

    #[test]
    fn batch_drain_moves_up_to_max() {
        let (tx, rx) = bounded::<usize>(16);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.try_recv_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        assert_eq!(rx.try_recv_batch(&mut out, 100), 0);
        assert!(rx.is_empty());
        drop(tx);
        assert!(rx.is_disconnected());
    }

    #[test]
    fn send_fails_once_receiver_is_gone() {
        let (tx, rx) = bounded::<usize>(1);
        tx.send(1).unwrap();
        drop(rx);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn mpsc_clones_share_the_channel() {
        let (tx, rx) = bounded::<usize>(8);
        let tx2 = tx.clone();
        thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..20 {
                    tx.send(1).unwrap();
                }
            });
            s.spawn(move || {
                for _ in 0..20 {
                    tx2.send(2).unwrap();
                }
            });
            let mut total = 0;
            let mut count = 0;
            while let Some(v) = rx.recv() {
                total += v;
                count += 1;
            }
            assert_eq!(count, 40);
            assert_eq!(total, 60);
        });
    }
}
