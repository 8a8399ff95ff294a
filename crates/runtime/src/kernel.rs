//! The discrete-event simulation executive.
//!
//! [`Simulation`] joins a [`Scheduler`] (event queue, clock, stop
//! control) and an [`Executor`] (actor slab, dispatch, RNG streams)
//! behind the classic kernel API. Events with equal timestamps are
//! delivered in scheduling order (FIFO), which — together with seeded
//! RNG streams — makes every run bit-reproducible. Same-instant
//! cascades are delivered through the scheduler's batch, avoiding
//! per-event heap churn on the hot path.

use crate::actor::{Actor, ActorId};
use crate::executor::Executor;
use crate::rng::RngFactory;
use crate::scheduler::Scheduler;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;

pub use crate::executor::Context;

/// A deterministic discrete-event simulation over message type `M`.
///
/// See the [`Actor`] docs for a complete usage example.
pub struct Simulation<M> {
    scheduler: Scheduler<M>,
    executor: Executor<M>,
    trace: TraceLog,
    events_processed: u64,
    /// Batch-dispatch scratch: the ready ring is swapped in here one
    /// instant at a time, so steady-state runs reuse the same two
    /// buffers with zero allocation.
    scratch: std::collections::VecDeque<(ActorId, M)>,
}

impl<M: 'static> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("actors", &self.executor.actor_count())
            .field("now", &self.scheduler.now())
            .field("pending", &self.scheduler.pending())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<M: 'static> Simulation<M> {
    /// Creates an empty simulation whose randomness derives from
    /// `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Simulation {
            scheduler: Scheduler::new(),
            executor: Executor::new(master_seed),
            trace: TraceLog::default(),
            events_processed: 0,
            scratch: std::collections::VecDeque::new(),
        }
    }

    /// Registers an actor and returns its id. The actor's RNG stream is
    /// derived from the master seed and `name`, so renaming an actor —
    /// not reordering registration — is what changes its randomness.
    pub fn add_actor(&mut self, name: &str, actor: impl Actor<M>) -> ActorId {
        self.executor.add_actor(name, actor)
    }

    /// The registered name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this simulation.
    pub fn actor_name(&self, id: ActorId) -> &str {
        self.executor.actor_name(id)
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.executor.actor_count()
    }

    /// Immutable access to an actor's concrete state.
    ///
    /// Returns `None` if the id is unknown, the actor is currently being
    /// dispatched, or the concrete type is not `T`.
    pub fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.executor.actor_as(id)
    }

    /// Mutable access to an actor's concrete state (see [`Self::actor_as`]).
    pub fn actor_as_mut<T: 'static>(&mut self, id: ActorId) -> Option<&mut T> {
        self.executor.actor_as_mut(id)
    }

    /// The scheduler half of the kernel.
    pub fn scheduler(&self) -> &Scheduler<M> {
        &self.scheduler
    }

    /// The executor half of the kernel.
    pub fn executor(&self) -> &Executor<M> {
        &self.executor
    }

    /// Schedules `msg` for `target` at absolute time `at` (clamped to
    /// the present).
    pub fn schedule(&mut self, at: SimTime, target: ActorId, msg: M) {
        self.scheduler.schedule_at(at, target, msg);
    }

    /// Schedules `msg` for `target` after `delay` from now.
    pub fn schedule_after(&mut self, delay: SimDuration, target: ActorId, msg: M) {
        self.scheduler.schedule_after(delay, target, msg);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still queued.
    pub fn pending_events(&self) -> usize {
        self.scheduler.pending()
    }

    /// The trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable trace log (e.g. to disable recording for benchmarks).
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// The RNG factory, for deriving extra streams outside the actors.
    pub fn rng_factory(&self) -> RngFactory {
        self.executor.rng_factory()
    }

    /// Whether an actor has requested a stop.
    pub fn is_stopped(&self) -> bool {
        self.scheduler.is_stopped()
    }

    /// Dispatches the next event, if any. Returns `false` when the queue
    /// is empty or a stop was requested.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.scheduler.pop_due() else {
            return false;
        };
        self.executor.dispatch(ev, &mut self.scheduler, &mut self.trace);
        self.events_processed += 1;
        true
    }

    /// Runs until the queue drains or a stop is requested. Returns the
    /// number of events processed by this call.
    ///
    /// Unlike [`Self::step`] in a loop, each open instant's ready ring
    /// is swapped into a reusable scratch buffer and delivered as one
    /// batch, with consecutive same-target events chained through a
    /// single checked-out actor and context. Delivery order is
    /// identical to stepping.
    pub fn run(&mut self) -> u64 {
        let before = self.events_processed;
        while !self.scheduler.is_stopped() {
            if self.scheduler.ready_is_empty() && !self.scheduler.open_next_instant() {
                break;
            }
            self.dispatch_ready_batch();
        }
        self.events_processed - before
    }

    /// Runs until `deadline` (inclusive), the queue drains, or a stop is
    /// requested. On return, `now()` is exactly `deadline` unless the
    /// run stopped early. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.events_processed;
        while !self.scheduler.is_stopped() {
            if self.scheduler.ready_is_empty() {
                if !self.scheduler.has_event_by(deadline) {
                    break;
                }
                let opened = self.scheduler.open_next_instant();
                debug_assert!(opened, "has_event_by promised an event");
            }
            self.dispatch_ready_batch();
        }
        if !self.scheduler.is_stopped() && self.now() < deadline {
            self.scheduler.advance_to(deadline);
        }
        self.events_processed - before
    }

    /// Swaps the open instant's ready events into the scratch buffer
    /// and delivers them as one batch. If a stop interrupts the batch,
    /// the undelivered remainder goes back to the queue.
    fn dispatch_ready_batch(&mut self) {
        self.scheduler.take_ready(&mut self.scratch);
        self.events_processed += self.executor.dispatch_batch(
            &mut self.scratch,
            self.scheduler.now(),
            &mut self.scheduler,
            &mut self.trace,
        );
        if !self.scratch.is_empty() {
            self.scheduler.put_back_ready(&mut self.scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping,
        Pong,
        Tick,
    }

    struct Pinger {
        peer: Option<ActorId>,
        sent: u32,
        limit: u32,
    }

    impl Actor<Msg> for Pinger {
        fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Pong | Msg::Tick => {
                    if self.sent < self.limit {
                        self.sent += 1;
                        ctx.schedule(SimDuration::from_millis(10), self.peer.unwrap(), Msg::Ping);
                    } else {
                        ctx.stop();
                    }
                }
                Msg::Ping => {}
            }
        }
    }

    struct Ponger {
        received: u32,
    }

    impl Actor<Msg> for Ponger {
        fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if msg == Msg::Ping {
                self.received += 1;
                ctx.trace("pong", format!("ping #{}", self.received));
                ctx.send(ActorId::from_index(0), Msg::Pong);
            }
        }
    }

    fn build() -> (Simulation<Msg>, ActorId, ActorId) {
        let mut sim = Simulation::new(1);
        let pinger = sim.add_actor("pinger", Pinger { peer: None, sent: 0, limit: 5 });
        let ponger = sim.add_actor("ponger", Ponger { received: 0 });
        sim.actor_as_mut::<Pinger>(pinger).unwrap().peer = Some(ponger);
        sim.schedule(SimTime::ZERO, pinger, Msg::Tick);
        (sim, pinger, ponger)
    }

    #[test]
    fn ping_pong_runs_to_completion() {
        let (mut sim, pinger, ponger) = build();
        sim.run();
        assert_eq!(sim.actor_as::<Pinger>(pinger).unwrap().sent, 5);
        assert_eq!(sim.actor_as::<Ponger>(ponger).unwrap().received, 5);
        assert!(sim.is_stopped());
        // 5 round trips of 10 ms each.
        assert_eq!(sim.now(), SimTime::from_millis(50));
        assert_eq!(sim.trace().by_category("pong").count(), 5);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let (mut sim, _, ponger) = build();
        sim.run_until(SimTime::from_millis(25));
        assert_eq!(sim.actor_as::<Ponger>(ponger).unwrap().received, 2);
        assert_eq!(sim.now(), SimTime::from_millis(25));
        // Remaining events still pending.
        assert!(sim.pending_events() > 0);
        sim.run();
        assert_eq!(sim.actor_as::<Ponger>(ponger).unwrap().received, 5);
    }

    #[test]
    fn fifo_order_at_equal_timestamps() {
        struct Recorder {
            seen: Vec<u32>,
        }
        impl Actor<u32> for Recorder {
            fn handle(&mut self, msg: u32, _ctx: &mut Context<'_, u32>) {
                self.seen.push(msg);
            }
        }
        let mut sim = Simulation::new(0);
        let r = sim.add_actor("rec", Recorder { seen: vec![] });
        for i in 0..10 {
            sim.schedule(SimTime::from_secs(1), r, i);
        }
        sim.run();
        assert_eq!(sim.actor_as::<Recorder>(r).unwrap().seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_cascade_preserves_fifo_across_batch() {
        // A forwarder that re-sends each message to a sink at the *same*
        // instant: forwarded copies must land after every pre-queued
        // event for that instant, in original order.
        struct Forwarder {
            sink: ActorId,
        }
        impl Actor<u32> for Forwarder {
            fn handle(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
                ctx.send(self.sink, msg + 100);
            }
        }
        struct Sink {
            seen: Vec<u32>,
        }
        impl Actor<u32> for Sink {
            fn handle(&mut self, msg: u32, _ctx: &mut Context<'_, u32>) {
                self.seen.push(msg);
            }
        }
        let mut sim = Simulation::new(0);
        let sink = sim.add_actor("sink", Sink { seen: vec![] });
        let fwd = sim.add_actor("fwd", Forwarder { sink });
        sim.schedule(SimTime::from_secs(1), fwd, 1);
        sim.schedule(SimTime::from_secs(1), sink, 2);
        sim.schedule(SimTime::from_secs(1), fwd, 3);
        sim.run();
        assert_eq!(sim.actor_as::<Sink>(sink).unwrap().seen, vec![2, 101, 103]);
    }

    #[test]
    fn determinism_across_runs() {
        let trace_a: Vec<String> = {
            let (mut sim, _, _) = build();
            sim.run();
            sim.trace().records().map(|r| r.to_string()).collect()
        };
        let trace_b: Vec<String> = {
            let (mut sim, _, _) = build();
            sim.run();
            sim.trace().records().map(|r| r.to_string()).collect()
        };
        assert_eq!(trace_a, trace_b);
    }

    #[test]
    fn rng_streams_depend_on_name_not_order() {
        use rand::Rng;
        struct Roller {
            value: u64,
        }
        impl Actor<()> for Roller {
            fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
                self.value = ctx.rng().gen();
            }
        }

        let roll = |names: &[&str], pick: &str| -> u64 {
            let mut sim = Simulation::new(7);
            let mut picked = None;
            for n in names {
                let id = sim.add_actor(n, Roller { value: 0 });
                if n == &pick {
                    picked = Some(id);
                }
            }
            let id = picked.unwrap();
            sim.schedule(SimTime::ZERO, id, ());
            sim.run();
            sim.actor_as::<Roller>(id).unwrap().value
        };

        let a = roll(&["x", "y"], "y");
        let b = roll(&["y", "x"], "y"); // registered first this time
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        struct Echo {
            at: Option<SimTime>,
        }
        impl Actor<u8> for Echo {
            fn handle(&mut self, msg: u8, ctx: &mut Context<'_, u8>) {
                if msg == 0 {
                    // Try to schedule "yesterday"; must arrive now, not panic.
                    ctx.schedule_at(SimTime::ZERO, ctx.self_id(), 1);
                } else {
                    self.at = Some(ctx.now());
                }
            }
        }
        let mut sim = Simulation::new(0);
        let e = sim.add_actor("echo", Echo { at: None });
        sim.schedule(SimTime::from_secs(5), e, 0);
        sim.run();
        assert_eq!(sim.actor_as::<Echo>(e).unwrap().at, Some(SimTime::from_secs(5)));
    }

    #[test]
    fn actor_as_wrong_type_is_none() {
        let (sim, pinger, _) = build();
        assert!(sim.actor_as::<Ponger>(pinger).is_none());
        assert!(sim.actor_as::<Pinger>(ActorId::from_index(99)).is_none());
    }

    #[test]
    fn run_until_lands_on_the_deadline() {
        let (mut sim, _, ponger) = build();
        sim.run_until(SimTime::from_millis(25));
        assert_eq!(sim.now(), SimTime::from_millis(25));
        assert!(sim.events_processed() > 0);
        assert_eq!(sim.actor_as::<Ponger>(ponger).unwrap().received, 2);
    }
}
