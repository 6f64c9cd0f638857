//! The friending application over the simulated MANET.
//!
//! Glues the protocol state machines to [`msb_net`]: the initiator
//! broadcasts the request package; relays run the fast check, forward
//! (TTL-bounded flooding with duplicate suppression and per-initiator
//! rate limiting), candidates compute their candidate keys — modelled
//! with a configurable per-key computation delay, which is what lets the
//! initiator's response-time window expose dictionary attackers — and
//! reply by (reverse-path) unicast.
//!
//! Traffic representation follows the simulation's
//! [`msb_net::sim::SimConfig::delivery`] switch: under
//! [`DeliveryMode::InMemory`] (the default) message structs ride the
//! event queue unserialized, accounted at their exact frame length;
//! under [`DeliveryMode::EncodedFrames`] every message is encoded into
//! its canonical [`msb_wire`] frame at the sender and strictly decoded
//! at each receiver, so the byte metrics *measure* real frames. The two
//! modes produce identical recipients, event order, match results and
//! byte counts — `tests/wire_differential.rs` pins that down.

use crate::package::{DecodeError, Reply, RequestPackage};
use crate::protocol::{
    ConfirmedMatch, Initiator, ProtocolConfig, Responder, ResponderOutcome, SessionSecret,
};
use msb_net::flood::{FloodDecision, FloodState};
use msb_net::guard::RateGuard;
use msb_net::payload::Payload;
use msb_net::sim::{DeliveryMode, NodeApp, NodeCtx, NodeId};
use msb_profile::entropy::EntropyModel;
use msb_profile::profile::Profile;
use msb_profile::request::RequestProfile;
use msb_wire::{peek_kind, FrameKind, Message};
use std::collections::HashMap;

/// An application message, as it rides the event queue under
/// [`DeliveryMode::InMemory`]. Its wire shape is the corresponding
/// [`msb_wire`] frame; [`AppMsg::frame_len`] is exact without encoding.
#[derive(Debug, Clone)]
enum AppMsg {
    Request(RequestPackage),
    Reply(Reply),
}

impl AppMsg {
    fn frame_len(&self) -> usize {
        match self {
            AppMsg::Request(p) => p.frame_len(),
            AppMsg::Reply(r) => r.frame_len(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            AppMsg::Request(p) => p.encode(),
            AppMsg::Reply(r) => r.encode(),
        }
    }

    /// Builds the payload representation `delivery` asks for.
    fn into_payload(self, delivery: DeliveryMode) -> Payload {
        match delivery {
            DeliveryMode::InMemory => {
                let wire_len = self.frame_len();
                Payload::mem(self, wire_len)
            }
            DeliveryMode::EncodedFrames => Payload::frame(self.encode()),
        }
    }
}

/// Periodic re-broadcast of carried requests — the mobility-driven
/// re-flooding policy (the paper's "spread by relays until … expiration
/// time" under churn).
///
/// A static flood reaches only the initiator's connected component at
/// t = 0. With a policy attached, every node that *relays* a request
/// (and the initiator itself) keeps the forwarded package and
/// re-broadcasts it every [`RefloodPolicy::period_us`] until the
/// package expires, so nodes that mobility carries into range later
/// still receive it; duplicate suppression makes re-floods cheap for
/// everyone who already processed the request. Driven by the
/// simulator's recurring timers
/// ([`msb_net::sim::NodeCtx::set_recurring_timer`]); see `docs/SIM.md`
/// for the scenario knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefloodPolicy {
    /// Distance between consecutive re-broadcasts of a carried
    /// package, in microseconds. Must be nonzero.
    pub period_us: u64,
    /// When set, each re-broadcast reaches only the `k` nearest
    /// in-range neighbors
    /// ([`msb_net::sim::NodeCtx::broadcast_k_nearest`]) instead of
    /// everyone in range — bounding re-flood traffic in dense crowds.
    pub fanout_cap: Option<usize>,
}

impl RefloodPolicy {
    /// Uncapped re-flooding every `period_us`.
    ///
    /// # Panics
    ///
    /// Panics if `period_us` is zero.
    pub fn every(period_us: u64) -> Self {
        assert!(period_us > 0, "a re-flood period must be nonzero");
        RefloodPolicy { period_us, fanout_cap: None }
    }

    /// Caps each re-broadcast to the `k` nearest in-range neighbors.
    pub fn with_fanout_cap(mut self, k: usize) -> Self {
        self.fanout_cap = Some(k);
        self
    }
}

/// A request this node keeps re-broadcasting while its re-flood timer
/// recurs. The payload is built once at arm time and the id
/// precomputed — re-encoding the frame (or re-hashing it) every period
/// would be wasted work, since [`Payload`] clones are O(1)
/// reference-count bumps either way.
#[derive(Debug)]
struct CarriedRequest {
    payload: Payload,
    request_id: [u8; 32],
    expires_us: u64,
}

/// Things that happened at a node, for inspection by tests, examples and
/// the evaluation harness.
#[derive(Debug, Clone, PartialEq)]
pub enum AppEvent {
    /// This node broadcast its own request.
    RequestSent {
        /// The flood id of the request.
        request_id: [u8; 32],
    },
    /// This node forwarded someone else's request.
    Relayed {
        /// The flood id of the request.
        request_id: [u8; 32],
    },
    /// The fast check passed and candidate keys were generated.
    BecameCandidate {
        /// The flood id of the request.
        request_id: [u8; 32],
        /// Number of candidate keys gambled.
        keys: usize,
    },
    /// A reply was transmitted back to the initiator.
    ReplySent {
        /// The flood id of the request.
        request_id: [u8; 32],
        /// Acknowledgements included.
        acks: usize,
    },
    /// The initiator confirmed a match.
    MatchConfirmed {
        /// Responder node id.
        responder: u32,
        /// Simulation time of confirmation.
        at_us: u64,
    },
    /// A reply failed validation (see the initiator's reject log).
    ReplyRejected {
        /// Responder node id.
        responder: u32,
    },
    /// A carried request was periodically re-broadcast (see
    /// [`RefloodPolicy`]).
    Reflooded {
        /// The flood id of the request.
        request_id: [u8; 32],
    },
    /// A sender exceeded the request-frequency limit.
    RateLimited {
        /// Offending initiator id.
        from: u32,
    },
    /// A malformed message was discarded.
    DecodeFailed {
        /// Decoder diagnosis (with the failing offset).
        error: DecodeError,
    },
}

/// A node in the friending network (initiator or participant).
#[derive(Debug)]
pub struct FriendingApp {
    profile: Profile,
    config: ProtocolConfig,
    pending_request: Option<RequestProfile>,
    initiator: Option<Initiator>,
    /// Responder state, built lazily on the first incoming request (the
    /// node id is only known then) and reused for every request after.
    responder: Option<Responder>,
    sessions: Vec<SessionSecret>,
    flood: FloodState,
    guard: RateGuard<u32>,
    pending_replies: HashMap<u64, (u32, Reply)>,
    /// Requests kept for periodic re-broadcast, keyed by the recurring
    /// timer token that re-fires them. Empty unless a [`RefloodPolicy`]
    /// is attached.
    carried: HashMap<u64, CarriedRequest>,
    reflood: Option<RefloodPolicy>,
    next_token: u64,
    per_key_cost_us: u64,
    entropy: Option<(EntropyModel, f64)>,
    /// Event log, in order.
    pub events: Vec<AppEvent>,
}

impl FriendingApp {
    /// A passive participant with the given profile.
    pub fn participant(profile: Profile, config: ProtocolConfig) -> Self {
        FriendingApp {
            profile,
            config,
            pending_request: None,
            initiator: None,
            responder: None,
            sessions: Vec::new(),
            flood: FloodState::new(),
            // Default: at most 3 requests per initiator per 10 s.
            guard: RateGuard::new(10_000_000, 3),
            pending_replies: HashMap::new(),
            carried: HashMap::new(),
            reflood: None,
            next_token: 0,
            per_key_cost_us: 7_000, // paper: ~7 ms per candidate key on a phone
            entropy: None,
            events: Vec::new(),
        }
    }

    /// An initiator: broadcasts `request` at start-up.
    pub fn initiator(profile: Profile, request: RequestProfile, config: ProtocolConfig) -> Self {
        let mut app = Self::participant(profile, config);
        app.pending_request = Some(request);
        app
    }

    /// Attaches a Protocol-3 entropy budget.
    pub fn with_entropy_budget(mut self, model: EntropyModel, phi: f64) -> Self {
        self.entropy = Some((model, phi));
        self.responder = None; // rebuild with the new budget
        self
    }

    /// Overrides the modelled per-candidate-key computation cost.
    pub fn with_per_key_cost(mut self, cost_us: u64) -> Self {
        self.per_key_cost_us = cost_us;
        self
    }

    /// Attaches a re-flooding policy: this node keeps re-broadcasting
    /// its own request (initiators) and every request it relays, each
    /// on a recurring timer, until the request expires. See
    /// [`RefloodPolicy`].
    pub fn with_reflood(mut self, policy: RefloodPolicy) -> Self {
        self.reflood = Some(policy);
        self
    }

    /// The initiator state (populated after `on_start` for initiators).
    pub fn initiator_state(&self) -> Option<&Initiator> {
        self.initiator.as_ref()
    }

    /// Confirmed matches (initiator side).
    pub fn matches(&self) -> &[ConfirmedMatch] {
        self.initiator.as_ref().map(|i| i.matches()).unwrap_or(&[])
    }

    /// Candidate session secrets (responder side).
    pub fn sessions(&self) -> &[SessionSecret] {
        &self.sessions
    }

    /// The cached responder for this node, built on first use.
    fn responder(&mut self, my_id: u32) -> &Responder {
        if self.responder.is_none() {
            let mut responder = Responder::new(my_id, self.profile.clone(), &self.config);
            if let Some((model, phi)) = &self.entropy {
                responder = responder.with_entropy_budget(model.clone(), *phi);
            }
            self.responder = Some(responder);
        }
        self.responder.as_ref().expect("just built")
    }

    /// Starts the periodic re-broadcast of `package` when a
    /// [`RefloodPolicy`] is attached and at least one firing fits
    /// before the package expires. The recurring timer stops itself at
    /// the expiry deadline, so re-flooding never keeps a finite
    /// simulation alive.
    fn arm_reflood(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        package: &RequestPackage,
        request_id: [u8; 32],
    ) {
        let Some(policy) = self.reflood else {
            return;
        };
        // Fire strictly before the expiry instant: a re-broadcast *at*
        // expiry would be classified Expired by every receiver.
        let until = package.expires_us.saturating_sub(1);
        if ctx.now_us().saturating_add(policy.period_us) > until {
            return; // expires before the first re-broadcast could land
        }
        let token = self.next_token;
        self.next_token += 1;
        self.carried.insert(
            token,
            CarriedRequest {
                payload: AppMsg::Request(package.clone()).into_payload(ctx.delivery()),
                request_id,
                expires_us: package.expires_us,
            },
        );
        ctx.set_recurring_timer(policy.period_us, policy.period_us, until, token);
    }

    /// One firing of a re-flood timer: re-broadcast the carried
    /// payload (fan-out-capped when the policy says so) and drop it
    /// once no further firing can land before expiry.
    fn fire_reflood(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let Some(carried) = self.carried.get(&token) else {
            return;
        };
        let policy = self.reflood.expect("carried requests exist only under a policy");
        let now = ctx.now_us();
        if carried.expires_us <= now {
            self.carried.remove(&token);
            return;
        }
        let request_id = carried.request_id;
        let payload = carried.payload.clone();
        match policy.fanout_cap {
            Some(k) => ctx.broadcast_k_nearest(k, payload),
            None => ctx.broadcast(payload),
        }
        self.events.push(AppEvent::Reflooded { request_id });
        // The recurring timer stops past `expires_us - 1`; free the
        // carried copy as soon as this was the last firing.
        if now.saturating_add(policy.period_us) > carried.expires_us.saturating_sub(1) {
            self.carried.remove(&token);
        }
    }

    fn handle_request(&mut self, ctx: &mut NodeCtx<'_>, package: &RequestPackage) {
        let my_id = ctx.node_id().index() as u32;
        if package.initiator == my_id {
            return; // own flood echo
        }
        let request_id = package.request_id();
        let decision =
            self.flood.classify(request_id, package.ttl, ctx.now_us(), package.expires_us);
        match decision {
            FloodDecision::Duplicate | FloodDecision::Expired => return,
            FloodDecision::Relay | FloodDecision::Absorb => {}
        }
        // DoS guard: drop over-chatty initiators before any crypto work.
        if !self.guard.allow(package.initiator, ctx.now_us()) {
            self.events.push(AppEvent::RateLimited { from: package.initiator });
            return;
        }

        let now = ctx.now_us();
        let outcome = self.responder(my_id).handle(package, now, ctx.rng());
        let mut verified_match = false;
        if let ResponderOutcome::Reply { reply, sessions, verified, stats } = outcome {
            self.events.push(AppEvent::BecameCandidate { request_id, keys: stats.distinct_keys });
            verified_match = verified;
            // Model the candidate-key computation time before replying.
            let delay = self.per_key_cost_us * sessions.len().max(1) as u64;
            let token = self.next_token;
            self.next_token += 1;
            self.pending_replies.insert(token, (package.initiator, reply));
            self.sessions.extend(sessions);
            ctx.set_timer(delay, token);
        }

        // Relay unless this node verifiably completed the search (P1).
        if decision == FloodDecision::Relay && !verified_match {
            let mut fwd = package.clone();
            fwd.ttl -= 1;
            self.arm_reflood(ctx, &fwd, request_id);
            let payload = AppMsg::Request(fwd).into_payload(ctx.delivery());
            ctx.broadcast(payload);
            self.events.push(AppEvent::Relayed { request_id });
        }
    }

    fn handle_reply(&mut self, ctx: &mut NodeCtx<'_>, reply: &Reply) {
        let Some(initiator) = self.initiator.as_mut() else {
            return; // replies are only meaningful to the initiator
        };
        let confirmed = initiator.process_reply(reply, ctx.now_us());
        if confirmed.is_empty() {
            self.events.push(AppEvent::ReplyRejected { responder: reply.responder });
        }
        for m in confirmed {
            self.events
                .push(AppEvent::MatchConfirmed { responder: m.responder, at_us: m.received_at_us });
        }
    }
}

/// Swarm-wide aggregation of [`FriendingApp`] outcomes — the metrics the
/// scalability benches and swarm examples report. Collected once after a
/// run by walking every node's event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwarmSummary {
    /// Nodes in the simulation.
    pub nodes: usize,
    /// Requests broadcast by initiators.
    pub requests_sent: u64,
    /// Relay forwards across the whole swarm.
    pub relays: u64,
    /// Periodic re-broadcasts of carried requests ([`RefloodPolicy`]).
    pub refloods: u64,
    /// Nodes that passed the fast check and gambled candidate keys.
    pub candidates: u64,
    /// Replies transmitted back toward initiators.
    pub replies: u64,
    /// Matches confirmed by initiators.
    pub matches: u64,
    /// Senders dropped by the per-initiator rate guard.
    pub rate_limited: u64,
    /// Confirmation times of every confirmed match, ascending, in
    /// microseconds since the simulation start (initiators broadcast at
    /// t = 0, so these are end-to-end match latencies).
    pub match_latencies_us: Vec<u64>,
}

impl SwarmSummary {
    /// Walks every node of a finished single-threaded simulation.
    pub fn collect(sim: &msb_net::sim::Simulator<FriendingApp>) -> Self {
        Self::from_apps(sim.node_count(), |i| sim.app(NodeId::new(i)))
    }

    /// Walks every node of a finished sharded simulation
    /// ([`msb_net::shard::ShardedSimulator`]). The sharded engine is
    /// bit-identical to the single-threaded oracle, so for the same
    /// scenario this summary equals [`SwarmSummary::collect`]'s — the
    /// shard differential suites assert exactly that.
    pub fn collect_sharded(sim: &msb_net::shard::ShardedSimulator<FriendingApp>) -> Self {
        Self::from_apps(sim.node_count(), |i| sim.app(NodeId::new(i)))
    }

    /// Engine-independent aggregation over each node's event log.
    fn from_apps<'a>(nodes: usize, app: impl Fn(u32) -> &'a FriendingApp) -> Self {
        Self::from_event_logs((0..nodes).map(|i| app(i as u32)))
    }

    /// Aggregates apps hosted outside a simulator — e.g. driven through
    /// [`msb_net::harness::AppHarness`] over real sockets. For the same
    /// scenario this must equal the simulator-collected summary; the
    /// `msb-server` loopback parity suite asserts exactly that.
    pub fn from_event_logs<'a>(apps: impl IntoIterator<Item = &'a FriendingApp>) -> Self {
        let mut out = SwarmSummary::default();
        for app in apps {
            out.nodes += 1;
            for event in &app.events {
                match event {
                    AppEvent::RequestSent { .. } => out.requests_sent += 1,
                    AppEvent::Relayed { .. } => out.relays += 1,
                    AppEvent::Reflooded { .. } => out.refloods += 1,
                    AppEvent::BecameCandidate { .. } => out.candidates += 1,
                    AppEvent::ReplySent { .. } => out.replies += 1,
                    AppEvent::MatchConfirmed { at_us, .. } => {
                        out.matches += 1;
                        out.match_latencies_us.push(*at_us);
                    }
                    AppEvent::RateLimited { .. } => out.rate_limited += 1,
                    AppEvent::ReplyRejected { .. } | AppEvent::DecodeFailed { .. } => {}
                }
            }
        }
        out.match_latencies_us.sort_unstable();
        out
    }

    /// The `p`-th percentile (0.0–1.0, nearest-rank) of match latency,
    /// or `None` when nothing matched. Defers to the workspace's one
    /// percentile implementation ([`msb_telemetry::percentile_sorted`],
    /// the same nearest rank the telemetry histograms use) — results
    /// are unchanged from the historical inline computation.
    pub fn latency_percentile_us(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "percentile must be in 0..=1");
        msb_telemetry::percentile_sorted(&self.match_latencies_us, p)
    }

    /// The match-latency distribution as a telemetry histogram — the
    /// log₂-bucketed form the relay and bench layers report. Percentile
    /// *ranks* agree with [`SwarmSummary::latency_percentile_us`]; the
    /// histogram resolves values to bucket upper bounds.
    pub fn latency_histogram(&self) -> msb_telemetry::LogHistogram {
        let mut h = msb_telemetry::LogHistogram::new();
        for &v in &self.match_latencies_us {
            h.record(v);
        }
        h
    }
}

/// Bridges one node's [`AppEvent`] log into a telemetry
/// [`msb_telemetry::Recorder`]: every protocol phase becomes a labelled
/// counter (`app.phase.*`, label = node id), and match confirmations —
/// the one event the log timestamps — additionally become
/// [`msb_telemetry::TraceTag::ProtocolPhase`] trace instants
/// (`a` = responder id). The log is already a pure function of the run,
/// so the bridged telemetry is deterministic by construction; run it
/// post-hoc over a finished simulation, or per window between
/// `run_until` calls.
pub fn trace_protocol_phases(node: u32, events: &[AppEvent], rec: &mut msb_telemetry::Recorder) {
    for event in events {
        let phase = match event {
            AppEvent::RequestSent { .. } => "app.phase.request_sent",
            AppEvent::Relayed { .. } => "app.phase.relayed",
            AppEvent::Reflooded { .. } => "app.phase.reflooded",
            AppEvent::BecameCandidate { .. } => "app.phase.candidate",
            AppEvent::ReplySent { .. } => "app.phase.reply_sent",
            AppEvent::MatchConfirmed { .. } => "app.phase.match_confirmed",
            AppEvent::ReplyRejected { .. } => "app.phase.reply_rejected",
            AppEvent::RateLimited { .. } => "app.phase.rate_limited",
            AppEvent::DecodeFailed { .. } => "app.phase.decode_failed",
        };
        rec.incr(phase, node, 1);
        if let AppEvent::MatchConfirmed { responder, at_us } = event {
            rec.event(
                msb_telemetry::TraceTag::ProtocolPhase,
                node,
                *at_us,
                u64::from(*responder),
                0,
            );
        }
    }
}

impl NodeApp for FriendingApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(request) = self.pending_request.take() {
            let my_id = ctx.node_id().index() as u32;
            let (initiator, package) =
                Initiator::create(&request, my_id, &self.config, ctx.now_us(), ctx.rng());
            let request_id = initiator.request_id();
            self.initiator = Some(initiator);
            self.arm_reflood(ctx, &package, request_id);
            let payload = AppMsg::Request(package).into_payload(ctx.delivery());
            ctx.broadcast(payload);
            self.events.push(AppEvent::RequestSent { request_id });
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _from: NodeId, payload: &Payload) {
        if let Some(msg) = payload.downcast_ref::<AppMsg>() {
            // Zero-copy: handle straight out of the shared message.
            match msg {
                AppMsg::Request(pkg) => self.handle_request(ctx, pkg),
                AppMsg::Reply(reply) => self.handle_reply(ctx, reply),
            }
            return;
        }
        let Some(bytes) = payload.as_bytes() else {
            return; // a foreign in-memory payload is not our traffic
        };
        match peek_kind(bytes) {
            Ok(FrameKind::Request) => match RequestPackage::decode(bytes) {
                Ok(pkg) => self.handle_request(ctx, &pkg),
                Err(error) => self.events.push(AppEvent::DecodeFailed { error }),
            },
            Ok(FrameKind::Reply) => match Reply::decode(bytes) {
                Ok(reply) => self.handle_reply(ctx, &reply),
                Err(error) => self.events.push(AppEvent::DecodeFailed { error }),
            },
            Ok(_) => {} // a valid frame of an unrelated kind: ignore
            Err(error) => self.events.push(AppEvent::DecodeFailed { error }),
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if let Some((initiator_node, reply)) = self.pending_replies.remove(&token) {
            let request_id = reply.request_id;
            let acks = reply.acks.len();
            let payload = AppMsg::Reply(reply).into_payload(ctx.delivery());
            ctx.unicast(NodeId::new(initiator_node), payload);
            self.events.push(AppEvent::ReplySent { request_id, acks });
            return;
        }
        // Not a reply token: a recurring re-flood firing (tokens are
        // drawn from one counter, so the namespaces never collide).
        self.fire_reflood(ctx, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolKind;
    use msb_net::sim::{SimConfig, Simulator};
    use msb_profile::Attribute;

    fn attr(c: &str, v: &str) -> Attribute {
        Attribute::new(c, v)
    }

    fn request() -> RequestProfile {
        RequestProfile::new(
            vec![attr("team", "search")],
            vec![attr("i", "jazz"), attr("i", "go"), attr("i", "tea")],
            2,
        )
        .unwrap()
    }

    fn matching_profile() -> Profile {
        Profile::from_attributes(vec![attr("team", "search"), attr("i", "jazz"), attr("i", "go")])
    }

    fn noise_profile(i: usize) -> Profile {
        Profile::from_attributes(vec![
            attr("hobby", &format!("n{i}")),
            attr("city", &format!("c{i}")),
        ])
    }

    fn config(kind: ProtocolKind) -> ProtocolConfig {
        ProtocolConfig::new(kind, 11)
    }

    /// Line topology: initiator at one end, target at the other, relays
    /// between — forces multi-hop flooding and reverse-path replies.
    fn line_sim(kind: ProtocolKind, hops: usize) -> Simulator<FriendingApp> {
        line_sim_with(kind, hops, SimConfig::default())
    }

    fn line_sim_with(
        kind: ProtocolKind,
        hops: usize,
        sim_config: SimConfig,
    ) -> Simulator<FriendingApp> {
        let mut sim = Simulator::new(sim_config, 99);
        sim.add_node(
            (0.0, 0.0),
            FriendingApp::initiator(noise_profile(100), request(), config(kind)),
        );
        for i in 1..hops {
            sim.add_node(
                (i as f64 * 40.0, 0.0),
                FriendingApp::participant(noise_profile(i), config(kind)),
            );
        }
        sim.add_node(
            (hops as f64 * 40.0, 0.0),
            FriendingApp::participant(matching_profile(), config(kind)),
        );
        sim
    }

    #[test]
    fn multihop_friending_p1() {
        let mut sim = line_sim(ProtocolKind::P1, 4);
        sim.start();
        sim.run();
        let initiator = sim.app(msb_net::sim::NodeId::new(0));
        assert_eq!(initiator.matches().len(), 1, "events: {:?}", initiator.events);
        assert_eq!(initiator.matches()[0].responder, 4);
        // Intermediate relays forwarded but learned nothing.
        for i in 1..4 {
            let relay = sim.app(msb_net::sim::NodeId::new(i));
            assert!(relay.events.iter().any(|e| matches!(e, AppEvent::Relayed { .. })));
            assert!(relay.sessions().is_empty(), "relay {i} must not be a candidate");
        }
    }

    #[test]
    fn multihop_friending_p2_and_p3() {
        for kind in [ProtocolKind::P2, ProtocolKind::P3] {
            let mut sim = line_sim(kind, 3);
            sim.start();
            sim.run();
            let initiator = sim.app(msb_net::sim::NodeId::new(0));
            assert_eq!(initiator.matches().len(), 1, "{kind:?}");
        }
    }

    #[test]
    fn multihop_friending_over_encoded_frames() {
        // The full flow again, but with every message encoded into its
        // canonical frame and decoded at each hop.
        let sim_config =
            SimConfig { delivery: DeliveryMode::EncodedFrames, ..SimConfig::default() };
        let mut sim = line_sim_with(ProtocolKind::P1, 4, sim_config);
        sim.start();
        sim.run();
        let initiator = sim.app(msb_net::sim::NodeId::new(0));
        assert_eq!(initiator.matches().len(), 1, "events: {:?}", initiator.events);
        assert_eq!(initiator.matches()[0].responder, 4);
        for i in 0..5 {
            let app = sim.app(msb_net::sim::NodeId::new(i));
            assert!(
                !app.events.iter().any(|e| matches!(e, AppEvent::DecodeFailed { .. })),
                "node {i} failed to decode a canonical frame: {:?}",
                app.events
            );
        }
    }

    #[test]
    fn no_matching_user_no_matches() {
        let mut sim = Simulator::new(SimConfig::default(), 5);
        sim.add_node(
            (0.0, 0.0),
            FriendingApp::initiator(noise_profile(0), request(), config(ProtocolKind::P1)),
        );
        for i in 1..6 {
            sim.add_node(
                (i as f64 * 30.0, 0.0),
                FriendingApp::participant(noise_profile(i), config(ProtocolKind::P1)),
            );
        }
        sim.start();
        sim.run();
        assert!(sim.app(msb_net::sim::NodeId::new(0)).matches().is_empty());
    }

    #[test]
    fn ttl_bounds_flood() {
        // TTL 1: the package reaches direct neighbours, is relayed once,
        // and relays' neighbours absorb without forwarding.
        let mut cfg = config(ProtocolKind::P1);
        cfg.ttl = 1;
        let mut sim = Simulator::new(SimConfig::default(), 5);
        sim.add_node((0.0, 0.0), FriendingApp::initiator(noise_profile(0), request(), cfg.clone()));
        for i in 1..5 {
            sim.add_node(
                (i as f64 * 40.0, 0.0),
                FriendingApp::participant(noise_profile(i), cfg.clone()),
            );
        }
        sim.start();
        sim.run();
        // Node 3 is 3 hops out; with TTL 1 the flood dies at node 2.
        let n3 = sim.app(msb_net::sim::NodeId::new(3));
        assert!(n3.events.is_empty(), "flood must not reach 3 hops: {:?}", n3.events);
    }

    #[test]
    fn matching_user_beyond_expiry_cannot_answer() {
        let mut cfg = config(ProtocolKind::P1);
        cfg.validity_us = 1; // expires immediately
        let mut sim = Simulator::new(SimConfig::default(), 5);
        sim.add_node((0.0, 0.0), FriendingApp::initiator(noise_profile(0), request(), cfg.clone()));
        sim.add_node((40.0, 0.0), FriendingApp::participant(matching_profile(), cfg));
        sim.start();
        sim.run();
        assert!(sim.app(msb_net::sim::NodeId::new(0)).matches().is_empty());
    }

    #[test]
    fn rate_guard_drops_flooding_initiator() {
        // An initiator hammering requests gets rate limited by peers.
        let cfg = config(ProtocolKind::P1);
        let mut sim = Simulator::new(SimConfig::default(), 5);
        sim.add_node((0.0, 0.0), FriendingApp::participant(noise_profile(0), cfg.clone()));
        let victim = msb_net::sim::NodeId::new(0);
        let mut r = rand::rngs::StdRng::seed_from_u64(1);
        use rand::SeedableRng;
        for _ in 0..10 {
            let (_, pkg) = Initiator::create(&request(), 42, &cfg, 0, &mut r);
            sim.inject(victim, msb_net::sim::NodeId::new(0), pkg.encode());
        }
        sim.run();
        let app = sim.app(victim);
        let limited =
            app.events.iter().filter(|e| matches!(e, AppEvent::RateLimited { from: 42 })).count();
        assert_eq!(limited, 7, "3 allowed, 7 rate-limited: {:?}", app.events);
    }

    #[test]
    fn swarm_summary_aggregates_events_and_percentiles() {
        let mut sim = line_sim(ProtocolKind::P1, 4);
        sim.start();
        sim.run();
        let summary = SwarmSummary::collect(&sim);
        assert_eq!(summary.nodes, 5);
        assert_eq!(summary.requests_sent, 1);
        assert_eq!(summary.matches, 1);
        assert_eq!(summary.candidates, 1);
        assert!(summary.relays >= 3, "relays forwarded the flood: {summary:?}");
        assert_eq!(summary.match_latencies_us.len(), 1);
        assert_eq!(summary.latency_percentile_us(0.5), summary.latency_percentile_us(1.0));
        assert_eq!(SwarmSummary::default().latency_percentile_us(0.99), None);
    }

    #[test]
    fn reflood_reaches_a_node_that_moves_into_range() {
        // The matching user starts out of range of everyone; without
        // re-flooding the initial broadcast misses it forever. Mid-run
        // it moves next to the initiator, and the next periodic
        // re-broadcast completes the match.
        let policy = RefloodPolicy::every(2_000_000);
        let mut sim = Simulator::new(SimConfig::default(), 42);
        let initiator = sim.add_node(
            (0.0, 0.0),
            FriendingApp::initiator(noise_profile(0), request(), config(ProtocolKind::P1))
                .with_reflood(policy),
        );
        let wanderer = sim.add_node(
            (500.0, 0.0), // far outside the 50 m radio range
            FriendingApp::participant(matching_profile(), config(ProtocolKind::P1)),
        );
        sim.start();
        sim.run_until(1_000_000);
        assert!(sim.app(initiator).matches().is_empty(), "nothing reachable yet");
        sim.set_position(wanderer, (30.0, 0.0)); // mobility brings it close
        sim.run();
        assert_eq!(sim.app(initiator).matches().len(), 1, "re-flood found the wanderer");
        let refloods = sim
            .app(initiator)
            .events
            .iter()
            .filter(|e| matches!(e, AppEvent::Reflooded { .. }))
            .count();
        assert!(refloods >= 1, "events: {:?}", sim.app(initiator).events);
    }

    #[test]
    fn reflood_stops_at_expiry_and_run_terminates() {
        let mut cfg = config(ProtocolKind::P1);
        cfg.validity_us = 10_000_000;
        let policy = RefloodPolicy::every(3_000_000);
        let mut sim = Simulator::new(SimConfig::default(), 7);
        let id = sim.add_node(
            (0.0, 0.0),
            FriendingApp::initiator(noise_profile(0), request(), cfg).with_reflood(policy),
        );
        sim.add_node(
            (40.0, 0.0),
            FriendingApp::participant(noise_profile(1), config(ProtocolKind::P1)),
        );
        sim.start();
        sim.run(); // must drain: the recurring timer is expiry-bounded
        let refloods =
            sim.app(id).events.iter().filter(|e| matches!(e, AppEvent::Reflooded { .. })).count();
        // Firings at 3 s, 6 s, 9 s — never at or past the 10 s expiry.
        assert_eq!(refloods, 3, "events: {:?}", sim.app(id).events);
        assert!(sim.now_us() < 10_000_000 + 1_000_000);
    }

    #[test]
    fn reflood_fanout_cap_limits_recipients() {
        // 6 in-range participants; the cap says each re-broadcast may
        // reach only 2. The initial (uncapped) flood still reaches all.
        let policy = RefloodPolicy::every(2_000_000).with_fanout_cap(2);
        let mut cfg = config(ProtocolKind::P1);
        cfg.validity_us = 5_000_000;
        let mut sim = Simulator::new(SimConfig::default(), 9);
        sim.add_node(
            (0.0, 0.0),
            FriendingApp::initiator(noise_profile(0), request(), cfg.clone()).with_reflood(policy),
        );
        for i in 1..7 {
            sim.add_node(
                (i as f64 * 5.0, 0.0),
                FriendingApp::participant(noise_profile(i), cfg.clone()),
            );
        }
        sim.start();
        let before = sim.metrics().delivered;
        sim.run_until(1_000_000);
        let initial_flood = sim.metrics().delivered - before;
        sim.run();
        // Two re-flood firings (2 s, 4 s) × 2 recipients each; relays
        // have nothing new to carry (duplicates are not relayed), so
        // the delta over the initial flood is exactly the capped traffic.
        let refire_traffic = sim.metrics().delivered - before - initial_flood;
        assert_eq!(refire_traffic, 4, "metrics: {:?}", sim.metrics());
    }

    #[test]
    fn swarm_summary_counts_refloods() {
        let policy = RefloodPolicy::every(2_000_000);
        let mut cfg = config(ProtocolKind::P1);
        cfg.validity_us = 5_000_000;
        let mut sim = Simulator::new(SimConfig::default(), 11);
        sim.add_node(
            (0.0, 0.0),
            FriendingApp::initiator(noise_profile(0), request(), cfg.clone()).with_reflood(policy),
        );
        sim.add_node((40.0, 0.0), FriendingApp::participant(noise_profile(1), cfg));
        sim.start();
        sim.run();
        let summary = SwarmSummary::collect(&sim);
        assert_eq!(summary.refloods, 2, "firings at 2 s and 4 s: {summary:?}");
    }

    #[test]
    fn channel_works_over_confirmed_match() {
        let mut sim = line_sim(ProtocolKind::P1, 2);
        sim.start();
        sim.run();
        let m = sim.app(msb_net::sim::NodeId::new(0)).matches()[0];
        let mut ich =
            sim.app(msb_net::sim::NodeId::new(0)).initiator_state().unwrap().pair_channel(&m);
        let responder_app = sim.app(msb_net::sim::NodeId::new(2));
        let mut rch = responder_app.sessions()[0].channel();
        let frame = ich.seal(b"nice to meet you");
        assert_eq!(rch.open(&frame).unwrap(), b"nice to meet you");
    }

    #[test]
    fn corrupted_package_logged_not_crashed() {
        let cfg = config(ProtocolKind::P1);
        let mut sim = Simulator::new(SimConfig::default(), 5);
        let id = sim.add_node((0.0, 0.0), FriendingApp::participant(noise_profile(0), cfg));
        // A frame-shaped prefix with a corrupt body…
        let (_, pkg) = {
            use rand::SeedableRng;
            Initiator::create(
                &request(),
                9,
                &config(ProtocolKind::P1),
                0,
                &mut rand::rngs::StdRng::seed_from_u64(2),
            )
        };
        let mut bytes = pkg.encode();
        bytes.truncate(bytes.len() - 5);
        sim.inject(id, msb_net::sim::NodeId::new(0), bytes);
        // …and plain garbage.
        sim.inject(id, msb_net::sim::NodeId::new(0), vec![1u8, 2, 3]);
        sim.run();
        let failures = sim
            .app(id)
            .events
            .iter()
            .filter(|e| matches!(e, AppEvent::DecodeFailed { .. }))
            .count();
        assert_eq!(failures, 2, "events: {:?}", sim.app(id).events);
    }
}
