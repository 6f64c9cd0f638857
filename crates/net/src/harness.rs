//! Driving a [`NodeApp`] outside the simulator.
//!
//! The simulator owns every [`NodeApp`] it runs: callbacks receive a
//! [`NodeCtx`] whose queued actions the engine consumes internally.
//! A *service* has the opposite shape — something else (a socket
//! client, a relay loop, a test driver) decides when a message
//! arrives and must see what the app wants transmitted. [`AppHarness`]
//! is that adapter: it hosts one app with the **same per-node RNG
//! derivation the simulator uses** (`NodeState`'s
//! `node_rng_seed(seed, node)` stream), absorbs timer actions into the
//! engine's own [`Scheduler`], keyed by the node's emission counter as
//! the simulator keys them, which the caller fires explicitly, and
//! returns transmit actions ([`AppAction`]) for the caller to route
//! however it likes.
//!
//! Because the RNG stream, timer order and re-arms, and action order
//! are the simulator's, an app driven through a harness over
//! real sockets is differentially comparable to the same app inside a
//! [`Simulator`](crate::sim::Simulator) run — the oracle-parity
//! contract `msb-server` is tested against (`docs/SERVER.md`).
//!
//! Time is virtual and caller-supplied: every entry point takes the
//! current instant in microseconds, and timers fire only when the
//! caller asks ([`AppHarness::fire_timers_until`]). The harness never
//! reads a wall clock.

use crate::payload::Payload;
use crate::sched::{HeapScheduler, Scheduler};
use crate::sim::{Action, DeliveryMode, NodeApp, NodeCtx, NodeId, NodeState};

/// A transmission an app requested — the public mirror of the
/// simulator's internal action set, minus timers (the harness absorbs
/// those into its own queue).
#[derive(Debug, Clone)]
pub enum AppAction {
    /// Broadcast to everyone in radio range.
    Broadcast(Payload),
    /// Broadcast capped to the `k` nearest neighbors.
    BroadcastK {
        /// The fan-out cap.
        k: usize,
        /// The payload to transmit.
        payload: Payload,
    },
    /// Point-to-point send.
    Unicast {
        /// The destination node.
        to: NodeId,
        /// The payload to transmit.
        payload: Payload,
    },
}

impl AppAction {
    /// The payload this action transmits.
    pub fn payload(&self) -> &Payload {
        match self {
            AppAction::Broadcast(p) => p,
            AppAction::BroadcastK { payload, .. } => payload,
            AppAction::Unicast { payload, .. } => payload,
        }
    }
}

/// Hosts one [`NodeApp`] outside the simulator. See the
/// [module docs](self) for the determinism contract.
pub struct AppHarness<A: NodeApp> {
    id: NodeId,
    position: (f64, f64),
    delivery: DeliveryMode,
    state: NodeState<A>,
    /// Pending timer tokens on the engine's scheduler, keyed by this
    /// node's emission counter ([`NodeState::next_key`]) exactly as the
    /// simulator keys them: same firing order, same recurrence re-arms.
    timers: HeapScheduler<u64>,
}

impl<A: NodeApp> AppHarness<A> {
    /// Creates a harness for `app` as node `id`, drawing from the same
    /// RNG stream the simulator would derive for `(seed, id)`.
    pub fn new(id: NodeId, app: A, seed: u64, delivery: DeliveryMode) -> Self {
        let raw = id.index() as u32;
        AppHarness {
            id,
            position: (0.0, 0.0),
            delivery,
            state: NodeState::new(app, seed, raw),
            timers: HeapScheduler::new(),
        }
    }

    /// Sets the position reported to the app (for apps that read
    /// [`NodeCtx::position`]). Defaults to the origin.
    pub fn set_position(&mut self, position: (f64, f64)) {
        self.position = position;
    }

    /// This harness's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The hosted app.
    pub fn app(&self) -> &A {
        &self.state.app
    }

    /// The hosted app, mutably.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.state.app
    }

    /// Runs [`NodeApp::on_start`] at `at_us`.
    pub fn start(&mut self, at_us: u64) -> Vec<AppAction> {
        self.run_callback(at_us, |app, ctx| app.on_start(ctx))
    }

    /// Delivers one message from `from` at `at_us`.
    pub fn deliver(&mut self, from: NodeId, payload: &Payload, at_us: u64) -> Vec<AppAction> {
        self.run_callback(at_us, |app, ctx| app.on_message(ctx, from, payload))
    }

    /// The instant the earliest pending timer fires, if any.
    pub fn next_timer_at(&mut self) -> Option<u64> {
        self.timers.peek().map(|(at_us, _)| at_us)
    }

    /// Fires every timer scheduled at or before `now_us`, in the
    /// simulator's order (time, then emission), re-arming recurring
    /// entries exactly as the simulator does. Returns the transmit
    /// actions from all firings, in firing order.
    pub fn fire_timers_until(&mut self, now_us: u64) -> Vec<AppAction> {
        let mut out = Vec::new();
        while self.next_timer_at().is_some_and(|at_us| at_us <= now_us) {
            let (at_us, token) = self.timers.pop().expect("peeked a timer");
            out.extend(self.run_callback(at_us, |app, ctx| app.on_timer(ctx, token)));
        }
        out
    }

    /// Runs one app callback and converts its queued actions: transmit
    /// actions are returned, timer actions are absorbed into the
    /// harness queue.
    fn run_callback(
        &mut self,
        now_us: u64,
        f: impl FnOnce(&mut A, &mut NodeCtx<'_>),
    ) -> Vec<AppAction> {
        let mut ctx = NodeCtx {
            id: self.id,
            now_us,
            position: self.position,
            delivery: self.delivery,
            rng: &mut self.state.rng,
            actions: Vec::new(),
        };
        f(&mut self.state.app, &mut ctx);
        let actions = ctx.actions;
        let mut out = Vec::with_capacity(actions.len());
        for action in actions {
            match action {
                Action::Broadcast(p) => out.push(AppAction::Broadcast(p)),
                Action::BroadcastK(k, p) => out.push(AppAction::BroadcastK { k, payload: p }),
                Action::Unicast(to, p) => out.push(AppAction::Unicast { to, payload: p }),
                Action::Timer(delay, token) => {
                    let key = self.state.next_key(self.id.0);
                    self.timers.schedule(now_us + delay, key, token);
                }
                Action::RecurringTimer(delay, recur, token) => {
                    let key = self.state.next_key(self.id.0);
                    self.timers.schedule_recurring(now_us + delay, key, recur, token);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Echoes every message back as a unicast, and counts timer fires.
    struct Echo {
        fires: Vec<u64>,
        draws: Vec<u64>,
    }

    impl NodeApp for Echo {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(100, 1);
            ctx.set_recurring_timer(50, 50, 220, 2);
            self.draws.push(ctx.rng().gen());
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, payload: &Payload) {
            let bytes = payload.as_bytes().unwrap().to_vec();
            ctx.unicast(from, bytes);
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, token: u64) {
            self.fires.push(token);
        }
    }

    #[test]
    fn actions_and_timers_flow_through() {
        let mut h = AppHarness::new(
            NodeId::new(3),
            Echo { fires: Vec::new(), draws: Vec::new() },
            42,
            DeliveryMode::InMemory,
        );
        assert!(h.start(0).is_empty());
        assert_eq!(h.next_timer_at(), Some(50));

        let acts = h.deliver(NodeId::new(9), &Payload::from(b"hi".to_vec()), 10);
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            AppAction::Unicast { to, payload } => {
                assert_eq!(*to, NodeId::new(9));
                assert_eq!(payload.as_bytes(), Some(&b"hi"[..]));
            }
            other => panic!("expected unicast, got {other:?}"),
        }

        // Recurring timer at 50/100/150/200 (next re-arm 250 > 220
        // stops it), one-shot at 100. At the t=100 tie the one-shot
        // wins: it was scheduled first, and re-arms keep their
        // original insertion order — the scheduler contract.
        assert!(h.fire_timers_until(400).is_empty());
        assert_eq!(h.app().fires, vec![2, 1, 2, 2, 2]);
        assert_eq!(h.next_timer_at(), None);
    }

    #[test]
    fn rng_stream_matches_simulator_derivation() {
        // Two harnesses with the same (seed, id) draw identically; a
        // different id diverges — the per-node stream property.
        let mk = |id: u32, seed: u64| {
            let mut h = AppHarness::new(
                NodeId::new(id),
                Echo { fires: Vec::new(), draws: Vec::new() },
                seed,
                DeliveryMode::InMemory,
            );
            h.start(0);
            h.app().draws[0]
        };
        assert_eq!(mk(5, 7), mk(5, 7));
        assert_ne!(mk(5, 7), mk(6, 7));
        assert_ne!(mk(5, 7), mk(5, 8));
    }
}
