//! `simkit` — a small, deterministic discrete-event simulation (DES) kit.
//!
//! The kit provides the substrate that [`simcluster`] builds its gateway
//! cluster model on:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with nanosecond
//!   resolution (`u64` nanoseconds since simulation start),
//! * [`Sim`] — an event scheduler that owns user state `S` and a binary
//!   heap of `(time, seq)`-ordered events; events are closures receiving
//!   `&mut Sim<S>` so they can both mutate state and schedule follow-ups,
//! * [`rng`] — deterministic, splittable random-number streams so that every
//!   simulated entity draws from its own stream and results are reproducible
//!   regardless of event interleaving changes elsewhere,
//! * [`stats`] — histograms (log-linear buckets, HDR-style), counters and
//!   Welford-style moment accumulators used to report latency percentiles,
//!   coefficients of variation, and throughput series,
//! * [`counters!`] — one declaration per set of statistics counters, from
//!   which the snapshot struct, its export walk and its atomic cells derive.
//!
//! Determinism contract: given the same seed and the same sequence of
//! `schedule` calls, a simulation produces bit-identical results. Events
//! scheduled for the same instant run in FIFO order of scheduling.
//!
//! [`simcluster`]: ../simcluster/index.html

mod counters;
pub mod rng;
pub mod stats;
pub mod sync;
mod time;

pub use time::{SimDuration, SimTime};

use std::cmp::Reverse;
use std::collections::BinaryHeap;

type EventFn<S> = Box<dyn FnOnce(&mut Sim<S>)>;

struct Entry<S> {
    at: SimTime,
    seq: u64,
    f: EventFn<S>,
}

impl<S> PartialEq for Entry<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Entry<S> {}
impl<S> PartialOrd for Entry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Entry<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A discrete-event simulator owning user state `S`.
///
/// Events are closures executed at their scheduled virtual time. An event
/// receives `&mut Sim<S>` and may read/modify [`Sim::state`], query
/// [`Sim::now`], and [`Sim::schedule`] further events.
///
/// ```
/// use simkit::{Sim, SimDuration};
///
/// let mut sim = Sim::new(0u64);
/// sim.schedule_in(SimDuration::from_millis(5), |sim| {
///     sim.state += 1;
///     let t = sim.now();
///     sim.schedule_in(SimDuration::from_millis(5), move |sim| {
///         assert_eq!(sim.now(), t + SimDuration::from_millis(5));
///         sim.state += 10;
///     });
/// });
/// sim.run();
/// assert_eq!(sim.state, 11);
/// ```
pub struct Sim<S> {
    now: SimTime,
    seq: u64,
    executed: u64,
    heap: BinaryHeap<Reverse<Entry<S>>>,
    /// The user-supplied simulation state (the "world").
    pub state: S,
}

impl<S> Sim<S> {
    /// Creates a simulator at virtual time zero with the given state.
    pub fn new(state: S) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            heap: BinaryHeap::new(),
            state,
        }
    }

    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Schedules `f` to run at absolute virtual time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < self.now()`); a DES must never
    /// travel backwards.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut Sim<S>) + 'static) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            at,
            seq,
            f: Box::new(f),
        }));
    }

    /// Schedules `f` to run `delay` after the current virtual time.
    pub fn schedule_in(&mut self, delay: SimDuration, f: impl FnOnce(&mut Sim<S>) + 'static) {
        let at = self.now + delay;
        self.schedule(at, f);
    }

    /// Executes the next pending event, advancing the clock to its time.
    /// Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        match self.heap.pop() {
            Some(Reverse(e)) => {
                debug_assert!(e.at >= self.now);
                self.now = e.at;
                self.executed += 1;
                (e.f)(self);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events with timestamps `<= until`, then sets the clock to
    /// `until` (if it is later than the last executed event).
    pub fn run_until(&mut self, until: SimTime) {
        loop {
            match self.heap.peek() {
                Some(Reverse(e)) if e.at <= until => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < until {
            self.now = until;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        for (label, ms) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let order = Rc::clone(&order);
            sim.schedule(SimTime::from_millis(ms), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn simultaneous_events_run_fifo() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        for i in 0..16 {
            let order = Rc::clone(&order);
            sim.schedule(SimTime::from_millis(5), move |_| {
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(0u32);
        fn tick(sim: &mut Sim<u32>) {
            sim.state += 1;
            if sim.state < 100 {
                sim.schedule_in(SimDuration::from_micros(1), tick);
            }
        }
        sim.schedule(SimTime::ZERO, tick);
        sim.run();
        assert_eq!(sim.state, 100);
        assert_eq!(sim.now(), SimTime::from_micros(99));
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut sim = Sim::new(Vec::new());
        for ms in [10u64, 20, 30, 40] {
            sim.schedule(SimTime::from_millis(ms), move |sim| sim.state.push(ms));
        }
        sim.run_until(SimTime::from_millis(25));
        assert_eq!(sim.state, vec![10, 20]);
        assert_eq!(sim.now(), SimTime::from_millis(25));
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.state, vec![10, 20, 30, 40]);
        assert_eq!(sim.now(), SimTime::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule(SimTime::from_millis(10), |sim| {
            sim.schedule(SimTime::from_millis(5), |_| {});
        });
        sim.run();
    }
}
