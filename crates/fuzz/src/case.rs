//! The fuzz-case vocabulary: every randomized input the differential
//! fuzzer can generate, as plain shrinkable data.
//!
//! A case is a *value* — no handles, no closures — so it can be
//! regenerated from a seed, mutated by the shrinker, and printed as a
//! reproduction recipe. Each variant names the layer pair (or triple)
//! its oracle cross-checks; the checks themselves live in
//! [`crate::check`].

use adgen_core::arch::ControlStyle;

/// Which of the paper's loop-nest workloads a structural case runs.
///
/// Only kernels that both the SRAG mapper and the counter-cascade
/// baseline can realize are eligible, so every architecture in the
/// oracle matrix produces the same stream by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Raster / FIFO scan.
    Fifo,
    /// Block-matching motion estimation (`mb`×`mb` macroblocks,
    /// search range `m`).
    MotionEst,
    /// Zoom-by-two read pattern.
    ZoomByTwo,
    /// Transpose / separable-DCT column scan.
    Transpose,
}

impl WorkloadKind {
    /// Short stable label used in failure reports.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Fifo => "fifo",
            WorkloadKind::MotionEst => "motion_est",
            WorkloadKind::ZoomByTwo => "zoom_by_two",
            WorkloadKind::Transpose => "transpose",
        }
    }
}

/// A literal code for shrinkable cube storage: 0 = Zero, 1 = One,
/// 2 = DontCare. Kept as `u8` so cube cases stay `Eq + Clone` plain
/// data.
pub type LitCode = u8;

/// One generated fuzz input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzCase {
    /// Raw 1-D sequence → mapper accept/reject vs. the brute-force
    /// restriction checker, plus round-trip on accept.
    Mapper {
        /// The raw address sequence under test.
        seq: Vec<u32>,
    },
    /// Workload → behavioural SRAG pair vs. counter-cascade CntAG vs.
    /// the reference trace, over two full periods.
    SragVsCntag {
        /// Workload kernel.
        kind: WorkloadKind,
        /// Array width (power of two).
        width: u32,
        /// Array height (power of two).
        height: u32,
        /// Macroblock edge (motion estimation only).
        mb: u32,
        /// Search range (motion estimation only).
        m: u32,
    },
    /// Workload → behavioural SRAG pair vs. gate-level elaboration
    /// (compiled and event-driven simulators, plus netlist-level
    /// equivalence between control styles / chaining).
    GateLevel {
        /// Workload kernel.
        kind: WorkloadKind,
        /// Array width (power of two).
        width: u32,
        /// Array height (power of two).
        height: u32,
        /// Macroblock edge (motion estimation only).
        mb: u32,
        /// Control style of the primary elaboration.
        style: ControlStyle,
    },
    /// Two random cubes → every packed `Cube` operation vs. the
    /// `Vec<Tri>` oracle, including spill-word widths.
    Cube {
        /// Literals of cube `a`, one [`LitCode`] per variable.
        a: Vec<LitCode>,
        /// Literals of cube `b`; same arity as `a`.
        b: Vec<LitCode>,
        /// Minterms probed for containment agreement.
        minterms: Vec<u64>,
    },
    /// Random on/dc minterm sets → espresso minimization checked
    /// exhaustively against truth-table semantics.
    Espresso {
        /// Number of input variables (small enough to enumerate).
        n: usize,
        /// On-set minterms.
        on: Vec<u64>,
        /// Don't-care minterms (disjoint from `on`).
        dc: Vec<u64>,
    },
    /// Wide (>32-variable) covers → packed `Cover` operations vs. the
    /// naive oracle on sampled minterms.
    WideCover {
        /// Number of input variables (33..=64: always spills words).
        n: usize,
        /// Cubes of the cover, as literal codes.
        cubes: Vec<Vec<LitCode>>,
        /// Minterms probed for evaluation agreement.
        minterms: Vec<u64>,
    },
    /// Workload → write-then-read co-simulation through the ADDM
    /// (two-hot select discipline) and the conventional RAM, driven by
    /// behavioural SRAG pairs and replay generators.
    Cosim {
        /// Read-side workload kernel.
        kind: WorkloadKind,
        /// Array width (power of two).
        width: u32,
        /// Array height (power of two).
        height: u32,
        /// Macroblock edge (motion estimation only).
        mb: u32,
    },
    /// Workload → gate-level elaboration driven through the bit-sliced
    /// simulator with an independent stimulus and fault plan per lane,
    /// cross-checked lane-by-lane against `EventSimulator` twins.
    SlicedVsScalar {
        /// Workload kernel.
        kind: WorkloadKind,
        /// Array width (power of two).
        width: u32,
        /// Array height (power of two).
        height: u32,
        /// Macroblock edge (motion estimation only).
        mb: u32,
        /// Lane count of the sliced simulator (`1..=128`, biased
        /// toward word seams).
        lanes: u32,
        /// Clock cycles driven.
        cycles: u32,
        /// Seed of the per-lane stimulus / fault-plan streams.
        salt: u64,
    },
    /// Adversarial wire traffic against a live in-process serving
    /// stack: the reactor must answer with a typed error or close
    /// cleanly, keep serving well-behaved clients, and never panic.
    FrameFuzz {
        /// Attack shape: 0 = truncated frame then write-side close,
        /// 1 = oversized length prefix, 2 = garbage where the hello
        /// belongs, 3 = unsupported protocol version, 4 = undecodable
        /// request payload, 5 = slowloris (partial frame, then
        /// silence), 6 = mid-frame disconnect.
        attack: u8,
        /// Random bytes woven into the attack (partial bodies, bogus
        /// hello, payload tail).
        garbage: Vec<u8>,
    },
    /// Raw 1-D sequence → the affine mapper's fit, replayed through
    /// the closed-form stream, the behavioural simulator, and the
    /// gate-level AGU on all three simulation engines (including a
    /// serial chain-programming run and a multi-lane sliced replay).
    AffineVsReference {
        /// The raw address sequence under test (the fit input).
        seq: Vec<u32>,
        /// Lane count of the sliced replay (`1..=128`, biased toward
        /// word seams).
        lanes: u32,
    },
    /// Raw 1-D address stream sliced across B banks → the bank map
    /// must round-trip every address (`split`/`join`), and each
    /// lane's decomposed factorization must reconstruct its local
    /// stream bit-exactly, so the whole stream reassembles across
    /// all B lanes.
    BankVsReference {
        /// The raw address stream under test.
        stream: Vec<u32>,
        /// Bank count (`1..=16`, seam-biased toward powers of two
        /// and their neighbours; rounded down to a power of two for
        /// the XOR-fold map).
        banks: u32,
        /// Bank-map selector: 0 = low-bits, 1 = high-bits,
        /// 2 = xor-fold.
        map: u8,
    },
    /// Single injected fault on a hardened SRAG select ring → the
    /// one-hot checker must raise `alarm` within one ring period of
    /// the fault activating, or the fault must be proven benign by
    /// bounded equivalence against the golden run.
    FaultAlarm {
        /// Ring length (number of select lines), `1..=10`.
        n: u32,
        /// Divide count (cycles per token step), `1..=3`.
        dc: u32,
        /// Fault model: 0 = stuck-at-0, 1 = stuck-at-1, 2 = SEU.
        kind: u8,
        /// Which select line (stuck-at) or ring flip-flop (SEU) is
        /// faulted; `< n`.
        target: u32,
        /// Activation cycle of an SEU (ignored for stuck-ats, which
        /// are present from reset).
        cycle: u32,
    },
}

impl FuzzCase {
    /// Stable kind label for reports and the determinism test.
    pub fn kind(&self) -> &'static str {
        match self {
            FuzzCase::Mapper { .. } => "mapper",
            FuzzCase::SragVsCntag { .. } => "srag-vs-cntag",
            FuzzCase::GateLevel { .. } => "gate-level",
            FuzzCase::Cube { .. } => "cube",
            FuzzCase::Espresso { .. } => "espresso",
            FuzzCase::WideCover { .. } => "wide-cover",
            FuzzCase::Cosim { .. } => "cosim",
            FuzzCase::SlicedVsScalar { .. } => "sliced-vs-scalar",
            FuzzCase::FrameFuzz { .. } => "frame-fuzz",
            FuzzCase::AffineVsReference { .. } => "affine-vs-reference",
            FuzzCase::BankVsReference { .. } => "bank-vs-reference",
            FuzzCase::FaultAlarm { .. } => "fault-alarm",
        }
    }

    /// One-line description of the concrete input, for counterexample
    /// reports.
    pub fn describe(&self) -> String {
        match self {
            FuzzCase::Mapper { seq } => format!("sequence {seq:?}"),
            FuzzCase::SragVsCntag {
                kind,
                width,
                height,
                mb,
                m,
            } => format!("{} {width}x{height} mb={mb} m={m}", kind.label()),
            FuzzCase::GateLevel {
                kind,
                width,
                height,
                mb,
                style,
            } => format!("{} {width}x{height} mb={mb} style={style:?}", kind.label()),
            FuzzCase::Cube { a, b, minterms } => format!(
                "cubes a={} b={} over {} vars, {} minterm probes",
                lits_to_string(a),
                lits_to_string(b),
                a.len(),
                minterms.len()
            ),
            FuzzCase::Espresso { n, on, dc } => {
                format!("{n} vars, on={on:?} dc={dc:?}")
            }
            FuzzCase::WideCover { n, cubes, minterms } => format!(
                "{n} vars, {} cubes [{}], {} minterm probes",
                cubes.len(),
                cubes
                    .iter()
                    .map(|c| lits_to_string(c))
                    .collect::<Vec<_>>()
                    .join(", "),
                minterms.len()
            ),
            FuzzCase::Cosim {
                kind,
                width,
                height,
                mb,
            } => format!("{} {width}x{height} mb={mb}", kind.label()),
            FuzzCase::SlicedVsScalar {
                kind,
                width,
                height,
                mb,
                lanes,
                cycles,
                salt,
            } => format!(
                "{} {width}x{height} mb={mb} lanes={lanes} cycles={cycles} salt={salt:#x}",
                kind.label()
            ),
            FuzzCase::FrameFuzz { attack, garbage } => {
                let attack = match attack % 7 {
                    0 => "truncated-frame",
                    1 => "oversized-len",
                    2 => "bad-hello-magic",
                    3 => "wrong-version",
                    4 => "undecodable-payload",
                    5 => "slowloris",
                    _ => "mid-frame-disconnect",
                };
                format!("{attack}, {} garbage bytes", garbage.len())
            }
            FuzzCase::AffineVsReference { seq, lanes } => {
                format!("sequence {seq:?} lanes={lanes}")
            }
            FuzzCase::BankVsReference { stream, banks, map } => {
                let map = match map % 3 {
                    0 => "low-bits",
                    1 => "high-bits",
                    _ => "xor-fold",
                };
                format!("stream {stream:?} banks={banks} map={map}")
            }
            FuzzCase::FaultAlarm {
                n,
                dc,
                kind,
                target,
                cycle,
            } => {
                let fault = match kind {
                    0 => format!("sa0 on line {target}"),
                    1 => format!("sa1 on line {target}"),
                    _ => format!("seu on ff {target} at cycle {cycle}"),
                };
                format!("ring n={n} dc={dc}, {fault}")
            }
        }
    }
}

/// PLA-style rendering of a literal-code vector (most significant
/// variable first, matching `Cube`'s `Display`).
fn lits_to_string(lits: &[LitCode]) -> String {
    lits.iter()
        .rev()
        .map(|&l| match l {
            0 => '0',
            1 => '1',
            _ => '-',
        })
        .collect()
}
