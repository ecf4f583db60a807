//! Seeded fault injection: stochastic link failures, router crashes,
//! and control-channel impairments.
//!
//! The paper assumes a benign environment at the protocol layer — §4.1:
//! "messages transmitted over an operational link are received
//! correctly and in the proper sequence within a finite time". Real
//! networks provide that through a link layer (HDLC-style ARQ) sitting
//! on a channel that drops, duplicates, jitters, and corrupts frames.
//! The chaos model here injects exactly that channel *below* a reliable
//! link layer:
//!
//! * **drops and corrupted frames** become retransmissions — the LSU is
//!   delayed by one retransmission timeout per lost attempt, never
//!   silently discarded (raw LSU loss would deadlock MPDA's ACTIVE
//!   state, which is a modelling error, not a protocol bug);
//! * **corruption** is byte-level and real: the message is framed
//!   through [`mdr_proto::frame`], random bytes are flipped or the
//!   frame truncated, and the result must survive
//!   [`mdr_proto::unframe`] — the CRC32 rejects essentially all of it,
//!   and anything rejected is retransmitted;
//! * **duplicates** are counted and suppressed (link-layer dedup;
//!   delivering a duplicate ACK could end a *later* ACTIVE phase early
//!   and raise a feasible distance unsafely — precisely the §4.1
//!   assumption MPDA's safety proof needs);
//! * **jitter** delays delivery by a bounded random amount, clamped so
//!   per-link FIFO order still holds (reordering across *different*
//!   links is already unrestricted and exercised).
//!
//! Link failures/repairs and router crash/restarts are alternating
//! renewal processes (exponential up/down times from MTBF/MTTR),
//! pre-generated by [`FaultPlan::schedule`] so a run remains a pure
//! function of `(config, seed)`.

use mdr_net::{NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Shortest downtime/uptime the schedule generator will emit (seconds).
/// Keeps a repaired link from flapping within one packet serialization
/// time, which would let pre-failure departure events fire on the new
/// incarnation of the link.
pub const MIN_PHASE: f64 = 0.05;

/// An alternating failure/repair process: exponential time-to-failure
/// with mean `mtbf`, exponential repair time with mean `mttr`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultProcess {
    /// Mean time between failures (seconds of *up* time).
    pub mtbf: f64,
    /// Mean time to repair (seconds of *down* time).
    pub mttr: f64,
}

impl FaultProcess {
    /// Validate the means.
    fn validate(&self, what: &str) {
        assert!(
            self.mtbf.is_finite() && self.mtbf > 0.0 && self.mttr.is_finite() && self.mttr > 0.0,
            "{what}: MTBF and MTTR must be positive and finite (got {self:?})"
        );
    }
}

/// Control-channel impairment probabilities, applied per LSU
/// transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlChaos {
    /// Probability an attempt is lost outright.
    pub drop_prob: f64,
    /// Probability the frame is delivered twice (the copy is suppressed
    /// by link-layer dedup and counted).
    pub dup_prob: f64,
    /// Probability the frame is corrupted in flight (random byte flips
    /// and truncation, pushed through the real codec).
    pub corrupt_prob: f64,
    /// Maximum extra delivery delay (seconds), uniform in `[0, max]`.
    pub jitter_max: f64,
    /// Retransmission timeout charged per lost/rejected attempt (s).
    pub rto: f64,
}

impl Default for ControlChaos {
    fn default() -> Self {
        ControlChaos {
            drop_prob: 0.05,
            dup_prob: 0.02,
            corrupt_prob: 0.02,
            jitter_max: 0.005,
            rto: 0.02,
        }
    }
}

impl ControlChaos {
    fn validate(&self) {
        for (p, what) in [
            (self.drop_prob, "drop_prob"),
            (self.dup_prob, "dup_prob"),
            (self.corrupt_prob, "corrupt_prob"),
        ] {
            assert!((0.0..=0.5).contains(&p), "ControlChaos.{what} must be in [0, 0.5], got {p}");
        }
        assert!(
            self.jitter_max.is_finite() && self.jitter_max >= 0.0,
            "ControlChaos.jitter_max must be finite and non-negative"
        );
        assert!(
            self.rto.is_finite() && self.rto > 0.0,
            "ControlChaos.rto must be positive and finite"
        );
    }
}

/// Per-attempt loss process for one *direction* of a link.
///
/// `Iid` is the memoryless channel the original chaos layer modelled;
/// `GilbertElliott` is the classic two-state Markov burst-loss channel:
/// each attempt first steps the chain (good→bad with `p_gb`, bad→good
/// with `p_bg`), then loses the frame with the state's loss rate. Mean
/// burst length is `1/p_bg` attempts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum LossModel {
    /// Independent loss with probability `p` per attempt.
    Iid {
        /// Loss probability per attempt.
        p: f64,
    },
    /// Two-state bursty loss.
    GilbertElliott {
        /// P(good → bad) per attempt.
        p_gb: f64,
        /// P(bad → good) per attempt.
        p_bg: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// No loss at all — the default direction profile.
    pub const NONE: LossModel = LossModel::Iid { p: 0.0 };

    fn validate(&self, what: &str) {
        let check = |p: f64, name: &str, hi: f64| {
            assert!(
                p.is_finite() && (0.0..=hi).contains(&p),
                "{what}.{name} must be in [0, {hi}], got {p}"
            );
        };
        match *self {
            LossModel::Iid { p } => check(p, "p", 0.5),
            LossModel::GilbertElliott { p_gb, p_bg, loss_good, loss_bad } => {
                check(p_gb, "p_gb", 1.0);
                check(loss_good, "loss_good", 0.5);
                check(loss_bad, "loss_bad", 0.95);
                assert!(
                    p_bg.is_finite() && (0.05..=1.0).contains(&p_bg),
                    "{what}.p_bg must be in [0.05, 1] (bad bursts must end), got {p_bg}"
                );
            }
        }
    }

    /// Step the process one attempt and decide whether the frame is
    /// lost. Consumes draws from the direction's private stream, so
    /// distinct directions evolve independently of each other and of
    /// every other RNG in the run.
    pub fn lose(&self, st: &mut DirState) -> bool {
        match *self {
            LossModel::Iid { p } => p > 0.0 && st.rng.gen::<f64>() < p,
            LossModel::GilbertElliott { p_gb, p_bg, loss_good, loss_bad } => {
                let flip: f64 = st.rng.gen();
                if st.bad {
                    if flip < p_bg {
                        st.bad = false;
                    }
                } else if flip < p_gb {
                    st.bad = true;
                }
                let rate = if st.bad { loss_bad } else { loss_good };
                rate > 0.0 && st.rng.gen::<f64>() < rate
            }
        }
    }
}

/// Impairment of one direction of every link: a loss process plus a
/// bounded extra delivery delay (uniform in `[0, delay_max]`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DirProfile {
    /// Per-attempt loss process.
    pub loss: LossModel,
    /// Maximum extra delivery delay (seconds).
    pub delay_max: f64,
}

impl Default for DirProfile {
    fn default() -> Self {
        DirProfile { loss: LossModel::NONE, delay_max: 0.0 }
    }
}

impl DirProfile {
    fn validate(&self, what: &str) {
        self.loss.validate(what);
        assert!(
            self.delay_max.is_finite() && self.delay_max >= 0.0,
            "{what}.delay_max must be finite and non-negative"
        );
    }

    /// Sample the extra delivery delay for one frame.
    pub fn extra_delay(&self, st: &mut DirState) -> f64 {
        if self.delay_max > 0.0 {
            st.rng.gen::<f64>() * self.delay_max
        } else {
            0.0
        }
    }
}

/// A grey failure: the link stays nominally up — hellos pass, so
/// neighbor detection sees nothing — but LSU *data* frames are dropped
/// or corrupted at the given rates. This is the failure mode fixed
/// dead-interval detection cannot see and the adaptive transport must
/// survive by retry-budget exhaustion and route withdrawal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GreyFailure {
    /// Probability a data frame is silently dropped.
    pub data_drop: f64,
    /// Probability a data frame is corrupted in flight.
    pub data_corrupt: f64,
}

impl GreyFailure {
    fn validate(&self) {
        for (p, what) in [(self.data_drop, "data_drop"), (self.data_corrupt, "data_corrupt")] {
            assert!(
                p.is_finite() && (0.0..=0.9).contains(&p),
                "GreyFailure.{what} must be in [0, 0.9], got {p}"
            );
        }
    }
}

/// A scripted partition: at `at`, every link crossing the boundary
/// between `side` and its complement is cut *atomically* (one instant,
/// all boundary links); at `heal_at` they are all restored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// Cut time (seconds).
    pub at: f64,
    /// Heal time (seconds).
    pub heal_at: f64,
    /// One side of the cut; the other side is the complement.
    pub side: Vec<NodeId>,
}

impl PartitionSpec {
    /// Why the spec cannot run, if it cannot — the one check behind both
    /// [`Self::parse`] and [`NetProfile::validate`].
    fn check(&self) -> Result<(), String> {
        if !(self.at.is_finite() && self.at >= 0.0 && self.heal_at.is_finite()) {
            Err("PartitionSpec times must be finite and non-negative".into())
        } else if self.heal_at <= self.at {
            Err("PartitionSpec.heal_at must follow .at".into())
        } else if self.side.is_empty() {
            Err("PartitionSpec.side must not be empty".into())
        } else {
            Ok(())
        }
    }

    fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Does the cut sever the pair `a — b`?
    pub fn severs(&self, a: NodeId, b: NodeId) -> bool {
        self.side.contains(&a) != self.side.contains(&b)
    }

    /// Is the partition in effect at time `t`?
    pub fn active(&self, t: f64) -> bool {
        t >= self.at && t < self.heal_at
    }
}

/// Adversarial network-conditions profile shared by the DES engine and
/// the live UDP shell: seeded per-direction loss/delay (optionally
/// asymmetric), grey failure, and scripted partition/heal schedules.
///
/// The same profile value drives both worlds — the engine applies it
/// inside [`ControlChaos`]-style ARQ accounting, the node shell applies
/// it at datagram ingress/egress — so a soak and a sim can run the
/// *same* seeded adversary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetProfile {
    /// Seed of the per-direction impairment streams (mixed per
    /// direction; independent of every other RNG in the run).
    pub seed: u64,
    /// Impairment of the `from < to` direction of every link (and of
    /// the reverse direction too when `reverse` is `None` — symmetric
    /// parameters, still independent sample paths).
    pub forward: DirProfile,
    /// Impairment of the `to < from` direction, when asymmetric.
    pub reverse: Option<DirProfile>,
    /// Grey-failure mode applied to data frames only.
    pub grey: Option<GreyFailure>,
    /// Scripted partition/heal schedule.
    pub partitions: Vec<PartitionSpec>,
}

impl Default for NetProfile {
    fn default() -> Self {
        NetProfile {
            seed: 1,
            forward: DirProfile::default(),
            reverse: None,
            grey: None,
            partitions: Vec::new(),
        }
    }
}

impl NetProfile {
    /// Panic on nonsensical parameters.
    pub fn validate(&self) {
        self.forward.validate("NetProfile.forward");
        if let Some(r) = &self.reverse {
            r.validate("NetProfile.reverse");
        }
        if let Some(g) = &self.grey {
            g.validate();
        }
        for p in &self.partitions {
            p.validate();
        }
    }

    /// The direction profile governing frames sent `from → to`.
    pub fn dir(&self, from: NodeId, to: NodeId) -> DirProfile {
        if from < to {
            self.forward
        } else {
            self.reverse.unwrap_or(self.forward)
        }
    }

    /// Is the pair `a — b` severed by an active partition at `t`?
    pub fn severed(&self, a: NodeId, b: NodeId, t: f64) -> bool {
        self.partitions.iter().any(|p| p.active(t) && p.severs(a, b))
    }

    /// Parse a compact profile spec, e.g.
    /// `"ge:0.05,0.4,0.01,0.6;grey:0.3,0.05;delay:0.002"`.
    ///
    /// Clauses are `;`-separated:
    /// * `iid:P` — i.i.d. loss (both directions unless `rev-*` given)
    /// * `ge:PGB,PBG,LGOOD,LBAD` — Gilbert–Elliott bursty loss
    /// * `rev-iid:P` / `rev-ge:...` — reverse-direction model
    /// * `delay:MAX` / `rev-delay:MAX` — extra delay bound (seconds)
    /// * `grey:DROP,CORRUPT` — grey-failure data rates
    ///
    /// Partitions carry a node list and are specified separately (see
    /// `PartitionSpec::parse`).
    pub fn parse(spec: &str, seed: u64) -> Result<NetProfile, String> {
        let mut out = NetProfile { seed, ..NetProfile::default() };
        let loss = |args: &str, kind: &str| -> Result<LossModel, String> {
            let xs: Vec<f64> = args
                .split(',')
                .map(|s| s.trim().parse::<f64>().map_err(|e| format!("bad number `{s}`: {e}")))
                .collect::<Result<_, _>>()?;
            match (kind, xs.as_slice()) {
                ("iid", [p]) => Ok(LossModel::Iid { p: *p }),
                ("ge", [p_gb, p_bg, loss_good, loss_bad]) => Ok(LossModel::GilbertElliott {
                    p_gb: *p_gb,
                    p_bg: *p_bg,
                    loss_good: *loss_good,
                    loss_bad: *loss_bad,
                }),
                _ => Err(format!("`{kind}` takes {} arguments", if kind == "iid" { 1 } else { 4 })),
            }
        };
        fn rev_mut(out: &mut NetProfile) -> &mut DirProfile {
            let fwd = out.forward;
            out.reverse.get_or_insert(fwd)
        }
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let (key, args) = clause
                .split_once(':')
                .ok_or_else(|| format!("clause `{clause}` is not `key:args`"))?;
            match key.trim() {
                "iid" => out.forward.loss = loss(args, "iid")?,
                "ge" => out.forward.loss = loss(args, "ge")?,
                "rev-iid" => rev_mut(&mut out).loss = loss(args, "iid")?,
                "rev-ge" => rev_mut(&mut out).loss = loss(args, "ge")?,
                "delay" => {
                    out.forward.delay_max =
                        args.trim().parse().map_err(|e| format!("bad delay: {e}"))?
                }
                "rev-delay" => {
                    rev_mut(&mut out).delay_max =
                        args.trim().parse().map_err(|e| format!("bad delay: {e}"))?
                }
                "grey" => {
                    let (d, c) = args
                        .split_once(',')
                        .ok_or_else(|| "grey takes DROP,CORRUPT".to_string())?;
                    out.grey = Some(GreyFailure {
                        data_drop: d.trim().parse().map_err(|e| format!("bad grey drop: {e}"))?,
                        data_corrupt: c
                            .trim()
                            .parse()
                            .map_err(|e| format!("bad grey corrupt: {e}"))?,
                    });
                }
                other => return Err(format!("unknown profile clause `{other}`")),
            }
        }
        Ok(out)
    }
}

impl PartitionSpec {
    /// Parse `"AT:HEAL:N0|N1|..."`, e.g. `"8:12:0|1"` — cut nodes {0,1}
    /// off from the rest between t=8 s and t=12 s. A spec that parses is
    /// one [`NetProfile::validate`] accepts.
    pub fn parse(spec: &str) -> Result<PartitionSpec, String> {
        let mut it = spec.splitn(3, ':');
        let (at, heal_at, side) = match (it.next(), it.next(), it.next()) {
            (Some(a), Some(h), Some(s)) => (a, h, s),
            _ => return Err(format!("partition `{spec}` is not AT:HEAL:N0|N1|...")),
        };
        let side: Vec<NodeId> = side
            .split('|')
            .map(|s| {
                s.trim()
                    .parse::<u32>()
                    .map(NodeId)
                    .map_err(|e| format!("bad partition node `{s}`: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let out = PartitionSpec {
            at: at.trim().parse().map_err(|e| format!("bad partition time: {e}"))?,
            heal_at: heal_at.trim().parse().map_err(|e| format!("bad heal time: {e}"))?,
            side,
        };
        out.check().map_err(|e| format!("partition `{spec}`: {e}"))?;
        Ok(out)
    }

    /// Parse a `;`-separated schedule of [`Self::parse`] specs for a
    /// network of `n` routers; a side naming a router `>= n` is refused.
    pub fn parse_schedule(specs: &str, n: usize) -> Result<Vec<PartitionSpec>, String> {
        let clauses = specs.split(';').filter(|c| !c.trim().is_empty());
        clauses
            .map(|clause| {
                let spec = PartitionSpec::parse(clause)?;
                match spec.side.iter().find(|x| x.index() >= n) {
                    Some(x) => Err(format!(
                        "partition `{clause}` names router {}, but the network has {n}",
                        x.0
                    )),
                    None => Ok(spec),
                }
            })
            .collect()
    }
}

/// Private RNG stream and burst state of one link direction.
#[derive(Debug, Clone)]
pub struct DirState {
    rng: SmallRng,
    bad: bool,
}

impl DirState {
    /// Stream for direction `from → to` under profile seed `seed`.
    /// Distinct directions land on distinct streams, on a different
    /// orbit than the fault-schedule mixers.
    pub fn new(seed: u64, from: NodeId, to: NodeId) -> DirState {
        let key = ((from.0 as u64) << 32 | to.0 as u64)
            .wrapping_mul(0xd605_1e2b_d60d_3ea1)
            .rotate_left(23)
            ^ 0x94d0_49bb_1331_11eb;
        DirState { rng: SmallRng::seed_from_u64(seed ^ key), bad: false }
    }

    /// Is the Gilbert–Elliott chain currently in the bad state?
    pub fn is_bad(&self) -> bool {
        self.bad
    }

    /// A raw draw from the stream (byte positions for corruption).
    pub fn draw(&mut self, bound: usize) -> usize {
        self.rng.gen_range(0..bound.max(1))
    }

    /// Bernoulli draw from the stream (skips the draw when `p == 0` so
    /// a disabled feature leaves the stream untouched).
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen::<f64>() < p
    }
}

/// Fate of one ingress datagram under a [`NetProfile`] (live-shell
/// path; the DES engine folds the same decisions into its ARQ model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressFate {
    /// Deliver unharmed.
    Deliver,
    /// Silently dropped.
    Drop,
    /// Deliver with flipped bits (the CRC layer above will judge it).
    Corrupt,
}

/// Deterministic ingress/egress impairment engine for one live node:
/// the `shell/udp.rs` counterpart of the engine's `send_control`
/// wiring. Decisions are a pure function of `(profile, me, sequence of
/// classify calls)` — no wall clock, no OS entropy.
#[derive(Debug)]
pub struct NetEmu {
    profile: NetProfile,
    me: NodeId,
    /// Ingress state per source node id.
    states: Vec<DirState>,
}

impl NetEmu {
    /// Build the emulator for node `me` of an `n`-node topology.
    pub fn new(profile: NetProfile, me: NodeId, n: usize) -> NetEmu {
        profile.validate();
        let states = (0..n as u32).map(|i| DirState::new(profile.seed, NodeId(i), me)).collect();
        NetEmu { profile, me, states }
    }

    /// The profile driving this emulator.
    pub fn profile(&self) -> &NetProfile {
        &self.profile
    }

    /// Egress check: may a datagram leave for `to` at elapsed time `t`?
    /// Partitions are enforced on the way out (the cut is a physical
    /// boundary, not a receive filter).
    pub fn egress_ok(&self, to: NodeId, t: f64) -> bool {
        !self.profile.severed(self.me, to, t)
    }

    /// Decide the fate of one ingress datagram from `from` at elapsed
    /// time `t`. `is_data` distinguishes LSU data frames from
    /// hello/ack traffic for the grey-failure mode.
    pub fn classify(&mut self, from: NodeId, is_data: bool, t: f64) -> IngressFate {
        if from.index() >= self.states.len() {
            return IngressFate::Deliver; // unknown source: not ours to impair
        }
        if self.profile.severed(from, self.me, t) {
            return IngressFate::Drop;
        }
        let dir = self.profile.dir(from, self.me);
        let st = &mut self.states[from.index()];
        if dir.loss.lose(st) {
            return IngressFate::Drop;
        }
        if is_data {
            if let Some(g) = self.profile.grey {
                if g.data_drop > 0.0 && st.rng.gen::<f64>() < g.data_drop {
                    return IngressFate::Drop;
                }
                if g.data_corrupt > 0.0 && st.rng.gen::<f64>() < g.data_corrupt {
                    return IngressFate::Corrupt;
                }
            }
        }
        IngressFate::Deliver
    }

    /// Byte index and bit mask for corrupting a `len`-byte frame from
    /// `from` (drawn from the same per-direction stream).
    pub fn corrupt_at(&mut self, from: NodeId, len: usize) -> (usize, u8) {
        let st = &mut self.states[from.index()];
        (st.draw(len), 1u8 << st.rng.gen_range(0..8u32))
    }
}

/// A seeded plan of stochastic perturbations for one simulation run.
///
/// Everything is optional; an all-`None` plan injects nothing (but still
/// allocates the robustness report). The plan's own `seed` is separate
/// from [`crate::SimConfig::seed`] so the same fault timeline can be
/// replayed against different traffic sample paths and vice versa.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault-schedule and impairment RNG.
    pub seed: u64,
    /// No fault fires before this simulated time (lets boot convergence
    /// finish undisturbed when that is the experimental intent).
    pub start: f64,
    /// Per-physical-link failure/repair process.
    pub link_faults: Option<FaultProcess>,
    /// Per-router crash/restart process. A crash wipes the router's
    /// MPDA, allocator, and estimator state; on restart it must
    /// re-synchronize from its neighbors via full-table LSUs.
    pub router_faults: Option<FaultProcess>,
    /// Control-channel impairments at `Ev::Control` delivery.
    pub control: Option<ControlChaos>,
    /// Adversarial network profile: bursty/asymmetric loss, grey
    /// failure, scripted partitions. Composes with `control` (both
    /// apply when both are set).
    #[serde(default)]
    pub profile: Option<NetProfile>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            start: 0.0,
            link_faults: None,
            router_faults: None,
            control: None,
            profile: None,
        }
    }
}

/// One scheduled perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultEvent {
    /// The physical (bidirectional) link `a — b` fails.
    FailLink {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// The physical link `a — b` is repaired.
    RestoreLink {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// Router `node` crashes, losing all protocol state; its adjacent
    /// links go down.
    CrashRouter {
        /// The crashing router.
        node: NodeId,
    },
    /// Router `node` restarts with empty state; adjacent links to alive
    /// neighbors come back up and trigger full-table re-sync.
    RestartRouter {
        /// The restarting router.
        node: NodeId,
    },
    /// Scripted partition `index` (into the plan's profile) cuts every
    /// boundary link atomically.
    PartitionCut {
        /// Index into [`NetProfile::partitions`].
        index: u32,
    },
    /// Scripted partition `index` heals: every boundary link restores.
    PartitionHeal {
        /// Index into [`NetProfile::partitions`].
        index: u32,
    },
}

impl FaultEvent {
    /// Stable snake-case label of the fault's class, for per-class
    /// recovery statistics.
    pub fn class(&self) -> &'static str {
        match self {
            FaultEvent::FailLink { .. } => "link_fail",
            FaultEvent::RestoreLink { .. } => "link_restore",
            FaultEvent::CrashRouter { .. } => "router_crash",
            FaultEvent::RestartRouter { .. } => "router_restart",
            FaultEvent::PartitionCut { .. } => "partition_cut",
            FaultEvent::PartitionHeal { .. } => "partition_heal",
        }
    }
}

impl FaultPlan {
    /// Panic on nonsensical parameters (fail at construction, not five
    /// minutes into a batch run).
    pub fn validate(&self) {
        assert!(
            self.start.is_finite() && self.start >= 0.0,
            "FaultPlan.start must be finite, >= 0"
        );
        if let Some(p) = &self.link_faults {
            p.validate("link_faults");
        }
        if let Some(p) = &self.router_faults {
            p.validate("router_faults");
        }
        if let Some(c) = &self.control {
            c.validate();
        }
        if let Some(p) = &self.profile {
            p.validate();
        }
    }

    /// Pre-generate the fault timeline over `[start, horizon)`:
    /// alternating up/down phases per physical link and per router,
    /// sorted by time. Deterministic in `(plan, topology)` — entities
    /// are visited in id order with a per-entity RNG stream, so the
    /// timeline of one link does not depend on how many other links
    /// exist.
    pub fn schedule(&self, topo: &Topology, horizon: f64) -> Vec<(f64, FaultEvent)> {
        self.validate();
        let mut out: Vec<(f64, FaultEvent)> = Vec::new();
        if let Some(p) = self.link_faults {
            // Physical links: each appears once with from < to.
            for l in topo.links().iter().filter(|l| l.from < l.to) {
                let stream = (l.from.0 as u64) << 32 | l.to.0 as u64;
                let mut rng = SmallRng::seed_from_u64(self.seed ^ link_mix(stream));
                alternate(&mut rng, p, self.start, horizon, &mut |t, down| {
                    out.push((
                        t,
                        if down {
                            FaultEvent::FailLink { a: l.from, b: l.to }
                        } else {
                            FaultEvent::RestoreLink { a: l.from, b: l.to }
                        },
                    ));
                });
            }
        }
        if let Some(p) = self.router_faults {
            for i in 0..topo.node_count() as u32 {
                let node = NodeId(i);
                let mut rng = SmallRng::seed_from_u64(self.seed ^ node_mix(i));
                alternate(&mut rng, p, self.start, horizon, &mut |t, down| {
                    out.push((
                        t,
                        if down {
                            FaultEvent::CrashRouter { node }
                        } else {
                            FaultEvent::RestartRouter { node }
                        },
                    ));
                });
            }
        }
        if let Some(profile) = &self.profile {
            for (i, p) in profile.partitions.iter().enumerate() {
                if p.at < horizon {
                    out.push((p.at, FaultEvent::PartitionCut { index: i as u32 }));
                    if p.heal_at < horizon {
                        out.push((p.heal_at, FaultEvent::PartitionHeal { index: i as u32 }));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// Mix a link identifier into a seed offset (splitmix-style odd
/// multiplier keeps distinct links on distinct RNG streams).
fn link_mix(stream: u64) -> u64 {
    stream.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31) | 1
}

/// Mix a router id into a seed offset, on a different orbit than links.
fn node_mix(i: u32) -> u64 {
    (i as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17) ^ 0x5851_f42d_4c95_7f2d
}

/// Emit alternating down/up transitions of one entity into `emit(t,
/// down)`; phases are exponential with the process means, floored at
/// [`MIN_PHASE`].
fn alternate(
    rng: &mut SmallRng,
    p: FaultProcess,
    start: f64,
    horizon: f64,
    emit: &mut impl FnMut(f64, bool),
) {
    let mut t = start + exp_sample(rng, p.mtbf);
    while t < horizon {
        emit(t, true);
        t += exp_sample(rng, p.mttr);
        if t >= horizon {
            break; // stays down to the end of the run
        }
        emit(t, false);
        t += exp_sample(rng, p.mtbf);
    }
}

/// Exponential sample with the given mean, floored at [`MIN_PHASE`].
fn exp_sample(rng: &mut SmallRng, mean: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    ((-u.ln()) * mean).max(MIN_PHASE)
}

/// What happened to one injected fault (or repair — both perturb the
/// control plane and get a recovery measurement).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Injection time (simulated seconds).
    pub time: f64,
    /// The perturbation.
    pub event: FaultEvent,
    /// Seconds from injection until the control plane next quiesced (no
    /// LSU in flight, every router PASSIVE); `None` when the run ended
    /// first.
    pub recovery_s: Option<f64>,
}

/// Data-plane and control-plane damage counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RobustnessCounters {
    /// Packets dropped for an empty successor set (or a dead/crashed
    /// next hop) — the "blackhole" count. Packet mode only: the fluid
    /// engine counts unrouted mass in `FlowStats::dropped_no_route`.
    pub packets_blackholed: u64,
    /// Packets dropped by the TTL guard (a forwarding loop existed).
    /// Packet mode only: the fluid engine has no TTL.
    pub packets_looped: u64,
    /// Packets drained from the queues of failing links. Packet mode
    /// only: fluid links hold no queue.
    pub packets_dropped_on_fault: u64,
    /// LSU transmission attempts lost on the wire (recovered by ARQ).
    pub lsus_dropped: u64,
    /// Duplicate LSU deliveries suppressed by link-layer dedup.
    pub lsus_duplicated: u64,
    /// Corrupted frames rejected by the codec (retransmitted).
    pub lsus_corrupted_rejected: u64,
    /// Corrupted frames that still decoded — delivered as-is; the CRC32
    /// makes this astronomically rare, and the LFI auditor would
    /// flag any damage.
    pub lsus_corrupted_delivered: u64,
    /// LSUs addressed to or sent by a router incarnation that had
    /// crashed before delivery (dropped; a restarted router must not
    /// process its previous life's traffic).
    pub lsus_dropped_stale: u64,
    /// Data frames dropped by a grey failure while the link stayed
    /// nominally up (recovered by ARQ; see [`GreyFailure`]).
    #[serde(default)]
    pub lsus_grey_dropped: u64,
}

/// Robustness extension of [`crate::SimReport`], present when a
/// [`FaultPlan`] or the LFI audit was enabled.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Every injected perturbation with its recovery time.
    pub faults: Vec<FaultRecord>,
    /// Perturbations whose recovery completed within the run.
    pub recovered: u64,
    /// Perturbations still unconverged at the end of the run.
    pub unrecovered: u64,
    /// Mean recovery time over recovered perturbations (s).
    pub mean_recovery_s: f64,
    /// Worst recovery time (s).
    pub max_recovery_s: f64,
    /// Damage counters.
    pub counters: RobustnessCounters,
    /// LFI audits performed (after every routing-table change).
    pub invariant_checks: u64,
    /// Audits that found a successor-graph cycle or an FD-ordering
    /// violation. Must be zero — MPDA's Theorem 1 says so.
    pub invariant_violations: u64,
    /// Description of the first violation, for diagnosis.
    pub first_violation: Option<String>,
}

impl RobustnessReport {
    /// Fill the recovery aggregates from `faults`.
    pub fn finalize(&mut self) {
        let mut sum = 0.0;
        let mut n = 0u64;
        self.max_recovery_s = 0.0;
        for f in &self.faults {
            if let Some(r) = f.recovery_s {
                sum += r;
                n += 1;
                if r > self.max_recovery_s {
                    self.max_recovery_s = r;
                }
            }
        }
        self.recovered = n;
        self.unrecovered = self.faults.len() as u64 - n;
        self.mean_recovery_s = if n > 0 { sum / n as f64 } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::topo;

    fn plan() -> FaultPlan {
        FaultPlan {
            seed: 42,
            start: 2.0,
            link_faults: Some(FaultProcess { mtbf: 10.0, mttr: 1.0 }),
            router_faults: Some(FaultProcess { mtbf: 30.0, mttr: 2.0 }),
            control: Some(ControlChaos::default()),
            profile: None,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let t = topo::net1();
        let a = plan().schedule(&t, 60.0);
        let b = plan().schedule(&t, 60.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.iter().all(|(t, _)| *t >= 2.0 && *t < 60.0));
    }

    #[test]
    fn schedule_alternates_per_entity() {
        let t = topo::net1();
        let ev = plan().schedule(&t, 120.0);
        // Per link: fail, restore, fail, restore... in order; per
        // router: crash, restart, crash...
        use std::collections::BTreeMap;
        let mut state: BTreeMap<String, bool> = BTreeMap::new(); // true = down
        for (_, e) in &ev {
            let (key, down) = match e {
                FaultEvent::FailLink { a, b } => (format!("l{}-{}", a.0, b.0), true),
                FaultEvent::RestoreLink { a, b } => (format!("l{}-{}", a.0, b.0), false),
                FaultEvent::CrashRouter { node } => (format!("r{}", node.0), true),
                FaultEvent::RestartRouter { node } => (format!("r{}", node.0), false),
                FaultEvent::PartitionCut { index } => (format!("p{index}"), true),
                FaultEvent::PartitionHeal { index } => (format!("p{index}"), false),
            };
            let was_down = state.entry(key.clone()).or_insert(false);
            assert_ne!(*was_down, down, "{key} did not alternate");
            *was_down = down;
        }
    }

    #[test]
    fn longer_horizon_extends_schedule_prefix() {
        let t = topo::net1();
        let short = plan().schedule(&t, 30.0);
        let long = plan().schedule(&t, 90.0);
        // Per-entity RNG streams: the short schedule is a subset of the
        // long one (same events, same times).
        for e in &short {
            assert!(long.contains(e), "event {e:?} vanished with a longer horizon");
        }
        assert!(long.len() > short.len());
    }

    #[test]
    fn phases_respect_floor() {
        let t = topo::cairn();
        let p = FaultPlan {
            seed: 7,
            start: 0.0,
            link_faults: Some(FaultProcess { mtbf: 0.06, mttr: 0.06 }),
            router_faults: None,
            control: None,
            profile: None,
        };
        let ev = p.schedule(&t, 20.0);
        use std::collections::BTreeMap;
        let mut last: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for (t, e) in &ev {
            let key = match e {
                FaultEvent::FailLink { a, b } | FaultEvent::RestoreLink { a, b } => (a.0, b.0),
                _ => unreachable!(),
            };
            if let Some(prev) = last.insert(key, *t) {
                assert!(*t - prev >= MIN_PHASE - 1e-12, "phase {} too short", *t - prev);
            }
        }
    }

    #[test]
    #[should_panic(expected = "MTBF and MTTR must be positive")]
    fn rejects_bad_mtbf() {
        FaultPlan {
            link_faults: Some(FaultProcess { mtbf: 0.0, mttr: 1.0 }),
            ..FaultPlan::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "drop_prob must be in")]
    fn rejects_bad_drop_prob() {
        FaultPlan {
            control: Some(ControlChaos { drop_prob: 0.9, ..ControlChaos::default() }),
            ..FaultPlan::default()
        }
        .validate();
    }

    #[test]
    fn report_finalize_aggregates() {
        let mut r = RobustnessReport {
            faults: vec![
                FaultRecord {
                    time: 1.0,
                    event: FaultEvent::CrashRouter { node: NodeId(0) },
                    recovery_s: Some(0.5),
                },
                FaultRecord {
                    time: 2.0,
                    event: FaultEvent::RestartRouter { node: NodeId(0) },
                    recovery_s: Some(1.5),
                },
                FaultRecord {
                    time: 3.0,
                    event: FaultEvent::FailLink { a: NodeId(0), b: NodeId(1) },
                    recovery_s: None,
                },
            ],
            ..Default::default()
        };
        r.finalize();
        assert_eq!(r.recovered, 2);
        assert_eq!(r.unrecovered, 1);
        assert!((r.mean_recovery_s - 1.0).abs() < 1e-12);
        assert_eq!(r.max_recovery_s, 1.5);
    }

    fn ge_profile() -> NetProfile {
        NetProfile {
            seed: 0xBAD,
            forward: DirProfile {
                loss: LossModel::GilbertElliott {
                    p_gb: 0.05,
                    p_bg: 0.4,
                    loss_good: 0.01,
                    loss_bad: 0.6,
                },
                delay_max: 0.002,
            },
            reverse: None,
            grey: Some(GreyFailure { data_drop: 0.3, data_corrupt: 0.05 }),
            partitions: vec![PartitionSpec {
                at: 8.0,
                heal_at: 12.0,
                side: vec![NodeId(0), NodeId(1)],
            }],
        }
    }

    #[test]
    fn gilbert_elliott_stream_is_seed_deterministic_and_bursty() {
        let p = ge_profile();
        let sample = |seed: u64| -> Vec<bool> {
            let mut st = DirState::new(seed, NodeId(3), NodeId(7));
            (0..4000).map(|_| p.forward.loss.lose(&mut st)).collect()
        };
        assert_eq!(sample(0xBAD), sample(0xBAD), "same seed must replay the same losses");
        assert_ne!(sample(0xBAD), sample(0xBAE), "different seeds must diverge");
        // Burstiness: losses cluster — the loss-after-loss rate must
        // clearly exceed the marginal loss rate.
        let s = sample(0xBAD);
        let losses = s.iter().filter(|&&l| l).count() as f64;
        let pairs = s.windows(2).filter(|w| w[0] && w[1]).count() as f64;
        let marginal = losses / s.len() as f64;
        let conditional = pairs / losses.max(1.0);
        assert!(
            conditional > 2.0 * marginal,
            "GE losses not bursty: P(loss|loss)={conditional:.3} vs P(loss)={marginal:.3}"
        );
    }

    #[test]
    fn directions_use_independent_streams() {
        let p = ge_profile();
        let run = |from: u32, to: u32| -> Vec<bool> {
            let mut st = DirState::new(p.seed, NodeId(from), NodeId(to));
            (0..256).map(|_| p.forward.loss.lose(&mut st)).collect()
        };
        assert_ne!(run(0, 1), run(1, 0), "the two directions of a link share a stream");
    }

    #[test]
    fn partition_severs_only_the_boundary() {
        let p = ge_profile();
        assert!(p.severed(NodeId(0), NodeId(2), 9.0));
        assert!(p.severed(NodeId(4), NodeId(1), 9.0));
        assert!(!p.severed(NodeId(0), NodeId(1), 9.0), "intra-side pair severed");
        assert!(!p.severed(NodeId(2), NodeId(3), 9.0), "complement pair severed");
        assert!(!p.severed(NodeId(0), NodeId(2), 7.9), "severed before the cut");
        assert!(!p.severed(NodeId(0), NodeId(2), 12.0), "severed after the heal");
    }

    #[test]
    fn schedule_carries_partition_events_atomically() {
        let t = topo::net1();
        let p = FaultPlan { seed: 3, profile: Some(ge_profile()), ..FaultPlan::default() };
        let ev = p.schedule(&t, 60.0);
        assert_eq!(
            ev,
            vec![
                (8.0, FaultEvent::PartitionCut { index: 0 }),
                (12.0, FaultEvent::PartitionHeal { index: 0 }),
            ],
            "partition cut/heal must each be one atomic event"
        );
        // Horizon before the heal: the cut still fires, the heal never does.
        let cut_only = p.schedule(&t, 10.0);
        assert_eq!(cut_only, vec![(8.0, FaultEvent::PartitionCut { index: 0 })]);
    }

    #[test]
    fn profile_spec_parses_and_plan_round_trips_through_serde() {
        let p = NetProfile::parse("ge:0.05,0.4,0.01,0.6;grey:0.3,0.05;delay:0.002", 0xBAD)
            .expect("spec must parse");
        let mut want = ge_profile();
        want.partitions.clear();
        assert_eq!(p, want);
        let mut full = want.clone();
        full.partitions.push(PartitionSpec::parse("8:12:0|1").expect("partition must parse"));
        full.reverse = Some(DirProfile { loss: LossModel::Iid { p: 0.2 }, delay_max: 0.0 });
        let plan = FaultPlan { profile: Some(full), ..FaultPlan::default() };
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(plan, back, "FaultPlan with NetProfile must round-trip");
    }

    #[test]
    fn fault_event_rejects_out_of_range_integers() {
        // 2^32 + 1 must not wrap to 1: chaos results read back through here.
        for line in [
            r#"{"kind":"crash_router","node":4294967297}"#,
            r#"{"kind":"partition_cut","index":4294967297}"#,
            r#"{"kind":"partition_heal","index":4294967297}"#,
        ] {
            assert!(serde_json::from_str::<FaultEvent>(line).is_err(), "{line} parsed");
        }
    }

    #[test]
    fn profile_spec_rejects_garbage() {
        assert!(NetProfile::parse("iid:0.05;boom:1", 1).is_err());
        assert!(NetProfile::parse("ge:0.1,0.2", 1).is_err());
        assert!(NetProfile::parse("grey:0.5", 1).is_err());
        assert!(PartitionSpec::parse("8:12").is_err());
        assert!(PartitionSpec::parse("8:12:x").is_err());
    }

    /// Every spec `parse` accepts is one `validate` accepts: a heal
    /// before (or at) the cut, a negative or non-finite time is an
    /// `Err`, not a later panic.
    #[test]
    fn partition_specs_that_parse_also_validate() {
        for bad in ["12:8:0", "8:8:0", "-1:2:0", "nan:2:0", "1:inf:0", "inf:inf:0"] {
            let err = PartitionSpec::parse(bad).expect_err(bad);
            assert!(err.contains(bad), "{bad}: {err}");
        }
        for good in ["8:12:0|1", "0:0.5:3", " 1 : 2 : 4 "] {
            let spec = PartitionSpec::parse(good).expect(good);
            NetProfile { partitions: vec![spec], ..NetProfile::default() }.validate();
        }
    }

    #[test]
    fn a_schedule_naming_a_router_outside_the_network_is_refused() {
        let two = PartitionSpec::parse_schedule("8:12:0|1; 14:15:4", 5).expect("in range");
        assert_eq!(two.len(), 2);
        let err = PartitionSpec::parse_schedule("8:12:0|5", 5).expect_err("router 5 of 5");
        assert!(err.contains("router 5"), "{err}");
        assert!(PartitionSpec::parse_schedule("8:12:0;12:8:1", 5).is_err());
    }

    #[test]
    fn asymmetric_profile_routes_directions_to_their_models() {
        let spec = "iid:0.4;rev-iid:0.0";
        let p = NetProfile::parse(spec, 9).expect("parse");
        assert_eq!(p.dir(NodeId(0), NodeId(1)).loss, LossModel::Iid { p: 0.4 });
        assert_eq!(p.dir(NodeId(1), NodeId(0)).loss, LossModel::Iid { p: 0.0 });
        // Heavy forward loss, lossless reverse: the emulator must agree.
        let mut lo = NetEmu::new(p.clone(), NodeId(1), 2); // receives 0→1 (forward)
        let mut hi = NetEmu::new(p, NodeId(0), 2); // receives 1→0 (reverse)
        let lost_fwd =
            (0..500).filter(|_| lo.classify(NodeId(0), false, 0.0) == IngressFate::Drop).count();
        let lost_rev =
            (0..500).filter(|_| hi.classify(NodeId(1), false, 0.0) == IngressFate::Drop).count();
        assert!(lost_fwd > 100, "forward direction saw almost no loss ({lost_fwd}/500)");
        assert_eq!(lost_rev, 0, "reverse direction must be lossless");
    }

    #[test]
    fn grey_failure_spares_hellos_and_hits_data() {
        let p = NetProfile {
            seed: 5,
            grey: Some(GreyFailure { data_drop: 0.5, data_corrupt: 0.2 }),
            ..NetProfile::default()
        };
        let mut emu = NetEmu::new(p, NodeId(1), 3);
        let hello_fates: Vec<IngressFate> =
            (0..300).map(|_| emu.classify(NodeId(0), false, 1.0)).collect();
        assert!(
            hello_fates.iter().all(|f| *f == IngressFate::Deliver),
            "grey failure must pass hello traffic untouched"
        );
        let data_fates: Vec<IngressFate> =
            (0..300).map(|_| emu.classify(NodeId(0), true, 1.0)).collect();
        let dropped = data_fates.iter().filter(|f| **f == IngressFate::Drop).count();
        let corrupted = data_fates.iter().filter(|f| **f == IngressFate::Corrupt).count();
        assert!(dropped > 100, "grey failure barely dropped data ({dropped}/300)");
        assert!(corrupted > 10, "grey failure barely corrupted data ({corrupted}/300)");
    }

    #[test]
    fn emulator_enforces_partitions_on_both_paths() {
        let mut emu = NetEmu::new(ge_profile(), NodeId(0), 5);
        assert!(emu.egress_ok(NodeId(2), 7.0), "egress blocked before the cut");
        assert!(!emu.egress_ok(NodeId(2), 9.0), "egress crossed an active cut");
        assert!(emu.egress_ok(NodeId(1), 9.0), "intra-side egress blocked");
        assert_eq!(
            emu.classify(NodeId(2), false, 9.0),
            IngressFate::Drop,
            "ingress crossed an active cut"
        );
        assert!(emu.egress_ok(NodeId(2), 12.5), "egress still blocked after the heal");
    }
}
