//! The NCCL tuning space: wire protocols, algorithms, and channels.
//!
//! Real NCCL does not run one fixed ring. Per collective call it picks
//! a *wire protocol* (LL / LL128 / Simple), an *algorithm* (ring or
//! tree), and a *channel count* (how many parallel instances share the
//! payload), using an internal cost model over message size and
//! topology — the space *Demystifying NCCL* (PAPERS.md,
//! arXiv:2507.04786) documents in depth. This module models that
//! space; [`crate::tuner`] performs the per-size selection.
//!
//! The paper's 2018 platform ran NCCL 2.0/2.1 — rings only, and the
//! fitted calibration constants of `voltascope-core` already subsume
//! whatever protocol mix that stack used. [`TuningSpace::paper`]
//! therefore pins {ring} x {Simple} x {1 channel}, reproducing the
//! calibrated graphs exactly, while [`TuningSpace::modern`] opens the
//! full NCCL-2.4-era space for the what-if sweeps and the
//! `VOLTASCOPE_NCCL_PROTO` override.

use std::fmt;

use voltascope_sim::SimSpan;

/// Environment variable that overrides the NCCL tuning space.
pub const NCCL_PROTO_ENV: &str = "VOLTASCOPE_NCCL_PROTO";

/// Typed errors of the communication cost models.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// A byte-volume computation exceeded `u64::MAX`.
    ArithmeticOverflow {
        /// Which computation overflowed (e.g. `"ring per-link bytes"`).
        context: &'static str,
        /// The payload size that triggered the overflow.
        bytes: u64,
    },
    /// A bandwidth efficiency outside `(0, 1]` (or non-finite).
    InvalidEfficiency {
        /// The rejected value.
        value: f64,
    },
    /// An unrecognised token in a tuning-space override string.
    UnknownTuningToken {
        /// The offending token.
        token: String,
    },
    /// A tuning space with no (algorithm, protocol, channels)
    /// candidate for the collective asked of it.
    EmptyTuningSpace {
        /// The rejected space: the override assignment, or the
        /// space's `Debug` form when it was built in code.
        value: String,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::ArithmeticOverflow { context, bytes } => write!(
                f,
                "communication volume overflow computing {context} for a {bytes}-byte payload"
            ),
            CommError::InvalidEfficiency { value } => write!(
                f,
                "bandwidth efficiency must be a finite fraction in (0, 1], got {value}"
            ),
            CommError::UnknownTuningToken { token } => write!(
                f,
                "unknown {NCCL_PROTO_ENV} token {token:?} \
                 (expected auto, ll, ll128, simple, ring, tree, or chN)"
            ),
            CommError::EmptyTuningSpace { value } => write!(
                f,
                "{value} leaves no (algorithm, protocol, channels) candidate"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Validated fraction of raw link bandwidth the pipeline sustains.
///
/// Stored in parts-per-million so the effective-bytes computation is
/// exact integer arithmetic (no `f64` round-trip — payloads above
/// 2^53 bytes used to lose low bits). Construction rejects values
/// outside `(0, 1]`, which deletes the `.max(0.01)` clamps that used
/// to silently rewrite nonsensical efficiencies at every use-site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BandwidthEfficiency {
    ppm: u32,
}

impl BandwidthEfficiency {
    /// Validates `value` as a sustained-bandwidth fraction.
    ///
    /// # Errors
    ///
    /// [`CommError::InvalidEfficiency`] unless `value` is finite and
    /// in `(0, 1]` (after rounding to the nearest part-per-million,
    /// the result must still be positive).
    pub fn new(value: f64) -> Result<Self, CommError> {
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            return Err(CommError::InvalidEfficiency { value });
        }
        let ppm = (value * 1e6).round() as u32;
        if ppm == 0 || ppm > 1_000_000 {
            return Err(CommError::InvalidEfficiency { value });
        }
        Ok(BandwidthEfficiency { ppm })
    }

    /// The efficiency in parts-per-million (always in `1..=1_000_000`).
    pub fn ppm(self) -> u64 {
        u64::from(self.ppm)
    }

    /// The efficiency as a plain fraction.
    pub fn as_f64(self) -> f64 {
        f64::from(self.ppm) / 1e6
    }
}

impl Default for BandwidthEfficiency {
    /// The calibrated DGX-1V default: 85% sustained.
    fn default() -> Self {
        BandwidthEfficiency { ppm: 850_000 }
    }
}

impl fmt::Display for BandwidthEfficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", f64::from(self.ppm) / 1e4)
    }
}

/// NCCL wire protocols (*Demystifying NCCL* §protocols).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// Low-latency: 8-byte lines carrying 4 bytes of data + a 4-byte
    /// flag, so the receiver spins on the flag instead of a memory
    /// fence. Half the wire is flags (50% efficiency) but per-step
    /// latency is minimal — wins small messages.
    Ll,
    /// LL128: 128-byte lines carrying 120 data bytes (93.75% wire
    /// efficiency), relying on the fabric's 128-byte atomic writes.
    /// Mid-range latency and near-full bandwidth.
    Ll128,
    /// Simple: bulk copies with memory-fence synchronisation. Full
    /// wire efficiency, highest per-step latency — wins large
    /// messages.
    Simple,
}

impl Protocol {
    /// All protocols, in NCCL's latency order (lowest first).
    pub const ALL: [Protocol; 3] = [Protocol::Ll, Protocol::Ll128, Protocol::Simple];

    /// Display name as NCCL spells it.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Ll => "LL",
            Protocol::Ll128 => "LL128",
            Protocol::Simple => "Simple",
        }
    }

    /// Wire efficiency as an exact rational `(data, wire)`: the
    /// protocol moves `wire/data x payload` bytes over the link.
    /// LL = 4 data per 8-byte line, LL128 = 120 per 128, Simple = 1/1.
    pub const fn wire_fraction(self) -> (u64, u64) {
        match self {
            Protocol::Ll => (1, 2),
            Protocol::Ll128 => (15, 16),
            Protocol::Simple => (1, 1),
        }
    }

    /// Per-chunk-step protocol cost, scaled from the calibrated Simple
    /// baseline: LL's flag-spin handshake avoids the fences that
    /// dominate Simple's step (1/4 of the cost here), LL128 sits in
    /// between (1/2).
    pub fn step_overhead(self, simple_baseline: SimSpan) -> SimSpan {
        match self {
            Protocol::Ll => simple_baseline / 4,
            Protocol::Ll128 => simple_baseline / 2,
            Protocol::Simple => simple_baseline,
        }
    }

    /// Chunk-step granularity in wire bytes: how much of a transfer
    /// one pipeline step moves before the slot is recycled. NCCL
    /// slices its per-channel buffer (4 MiB for Simple) into
    /// `NCCL_STEPS = 8` slots, so a Simple step carries 512 KiB;
    /// LL128's 120/128 line efficiency trims the data per slot, and
    /// LL's 8-byte flagged lines halve it again. The chunked emission
    /// ([`crate::collective::NcclCosts::chunking`]) occupies a link
    /// one step at a time at this granularity, which is what lets two
    /// collectives sharing the link interleave.
    pub const fn chunk_bytes(self) -> u64 {
        match self {
            Protocol::Ll => 256 << 10,
            Protocol::Ll128 => 480 << 10,
            Protocol::Simple => 512 << 10,
        }
    }

    /// Per-channel protocol processing throughput cap in bytes/sec, if
    /// any. LL and LL128 burn SM cycles packing lines and spinning on
    /// flags, so a single channel cannot saturate an NVLink lane —
    /// which is exactly why NCCL spreads them over more channels.
    /// Simple is DMA-bound and uncapped.
    pub fn channel_rate_cap(self) -> Option<f64> {
        match self {
            Protocol::Ll => Some(5.0e9),
            Protocol::Ll128 => Some(20.0e9),
            Protocol::Simple => None,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Collective algorithms the timing models implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// Chunked pipelined ring: bandwidth-optimal, `2(N-1)` latency
    /// steps.
    Ring,
    /// Binary reduce+broadcast tree (NCCL 2.4): `2 log2 N` latency
    /// steps, root links carry multiple children's payloads.
    Tree,
}

impl Algorithm {
    /// Both algorithms, rings first (the paper-era default).
    pub const ALL: [Algorithm; 2] = [Algorithm::Ring, Algorithm::Tree];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Ring => "ring",
            Algorithm::Tree => "tree",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One point of the tuning space: what a collective call actually
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Selection {
    /// Ring or tree (broadcast is always ring-shaped; see
    /// [`crate::collective::broadcast`]).
    pub algorithm: Algorithm,
    /// Wire protocol.
    pub protocol: Protocol,
    /// Parallel channel instances sharing the payload (>= 1).
    pub channels: u32,
}

impl Selection {
    /// The paper-era fixed choice: single-channel Simple ring.
    pub const PAPER: Selection = Selection {
        algorithm: Algorithm::Ring,
        protocol: Protocol::Simple,
        channels: 1,
    };
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/c{}", self.algorithm, self.protocol, self.channels)
    }
}

/// The candidate set the auto-tuner searches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuningSpace {
    /// Candidate algorithms, in tie-break preference order.
    pub algorithms: Vec<Algorithm>,
    /// Candidate protocols, in tie-break preference order.
    pub protocols: Vec<Protocol>,
    /// Candidate channel counts, in tie-break preference order.
    pub channels: Vec<u32>,
}

impl TuningSpace {
    /// The space of the paper's NCCL 2.0/2.1 stack as calibrated:
    /// {ring} x {Simple} x {1}. A singleton, so the tuner returns it
    /// without simulating — the calibrated graphs are reproduced
    /// exactly.
    pub fn paper() -> Self {
        TuningSpace {
            algorithms: vec![Algorithm::Ring],
            protocols: vec![Protocol::Simple],
            channels: vec![1],
        }
    }

    /// The NCCL-2.4-era space: {ring, tree} x {LL, LL128, Simple} x
    /// {1, 2, 4} channels.
    pub fn modern() -> Self {
        TuningSpace {
            algorithms: Algorithm::ALL.to_vec(),
            protocols: Protocol::ALL.to_vec(),
            channels: vec![1, 2, 4],
        }
    }

    /// The default space after applying the `VOLTASCOPE_NCCL_PROTO`
    /// override from the environment.
    ///
    /// # Panics
    ///
    /// Panics (loudly, with the typed error) on an invalid override —
    /// a silently ignored pin would invalidate an experiment.
    pub fn from_env() -> Self {
        match std::env::var(NCCL_PROTO_ENV) {
            Err(_) => TuningSpace::paper(),
            Ok(value) => TuningSpace::parse_override(&value)
                .unwrap_or_else(|e| panic!("invalid {NCCL_PROTO_ENV}: {e}")),
        }
    }

    /// Parses a `VOLTASCOPE_NCCL_PROTO` override string.
    ///
    /// The override starts from [`TuningSpace::modern`] and narrows
    /// it: `ll`/`ll128`/`simple` keep only the named protocols (union
    /// if repeated), `ring`/`tree` only the named algorithms, `chN`
    /// pins the channel count to `N`, and `auto` keeps the full modern
    /// space. Tokens are comma-separated and case-insensitive:
    /// `"ll128,tree,ch2"` pins a 2-channel LL128 tree.
    ///
    /// # Errors
    ///
    /// [`CommError::UnknownTuningToken`] for an unrecognised token and
    /// [`CommError::EmptyTuningSpace`] if nothing survives (`"ch0"`
    /// is an unknown token, not an empty space).
    pub fn parse_override(value: &str) -> Result<Self, CommError> {
        let mut algorithms: Vec<Algorithm> = Vec::new();
        let mut protocols: Vec<Protocol> = Vec::new();
        let mut channels: Vec<u32> = Vec::new();
        for raw in value.split(',') {
            let token = raw.trim().to_ascii_lowercase();
            match token.as_str() {
                "" | "auto" => {}
                "ll" => protocols.push(Protocol::Ll),
                "ll128" => protocols.push(Protocol::Ll128),
                "simple" => protocols.push(Protocol::Simple),
                "ring" => algorithms.push(Algorithm::Ring),
                "tree" => algorithms.push(Algorithm::Tree),
                _ => match token.strip_prefix("ch").and_then(|n| n.parse::<u32>().ok()) {
                    Some(c) if c >= 1 => channels.push(c),
                    _ => {
                        return Err(CommError::UnknownTuningToken {
                            token: raw.trim().to_string(),
                        })
                    }
                },
            }
        }
        let modern = TuningSpace::modern();
        let space = TuningSpace {
            algorithms: if algorithms.is_empty() {
                modern.algorithms
            } else {
                algorithms
            },
            protocols: if protocols.is_empty() {
                modern.protocols
            } else {
                protocols
            },
            channels: if channels.is_empty() {
                modern.channels
            } else {
                channels
            },
        };
        if space.candidates().next().is_none() {
            return Err(CommError::EmptyTuningSpace {
                value: format!("{NCCL_PROTO_ENV}={value:?}"),
            });
        }
        Ok(space)
    }

    /// Every candidate selection, in canonical (tie-break) order:
    /// algorithm-major, then protocol, then channels. The tuner keeps
    /// the earliest candidate on cost ties, so this order is
    /// golden-relevant.
    pub fn candidates(&self) -> impl Iterator<Item = Selection> + '_ {
        self.algorithms.iter().flat_map(move |&algorithm| {
            self.protocols.iter().flat_map(move |&protocol| {
                self.channels
                    .iter()
                    .filter(|&&c| c >= 1)
                    .map(move |&channels| Selection {
                        algorithm,
                        protocol,
                        channels,
                    })
            })
        })
    }

    /// If the space holds exactly one candidate, that candidate.
    pub fn singleton(&self) -> Option<Selection> {
        let mut it = self.candidates();
        let first = it.next()?;
        if it.next().is_none() {
            Some(first)
        } else {
            None
        }
    }
}

impl Default for TuningSpace {
    /// [`TuningSpace::from_env`]: the paper space unless
    /// `VOLTASCOPE_NCCL_PROTO` overrides it.
    fn default() -> Self {
        TuningSpace::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_rejects_nonsense() {
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY, 1e-9] {
            assert!(
                BandwidthEfficiency::new(bad).is_err(),
                "accepted {bad}; the old code silently clamped it"
            );
        }
    }

    #[test]
    fn efficiency_accepts_and_round_trips_valid_fractions() {
        let eff = BandwidthEfficiency::new(0.85).unwrap();
        assert_eq!(eff.ppm(), 850_000);
        assert!((eff.as_f64() - 0.85).abs() < 1e-9);
        assert_eq!(BandwidthEfficiency::new(1.0).unwrap().ppm(), 1_000_000);
        assert_eq!(BandwidthEfficiency::default().ppm(), 850_000);
    }

    #[test]
    fn paper_space_is_the_calibrated_singleton() {
        assert_eq!(TuningSpace::paper().singleton(), Some(Selection::PAPER));
        assert_eq!(TuningSpace::modern().singleton(), None);
        assert_eq!(TuningSpace::modern().candidates().count(), 2 * 3 * 3);
    }

    #[test]
    fn override_pins_and_narrows() {
        let s = TuningSpace::parse_override("ll128").unwrap();
        assert_eq!(s.protocols, vec![Protocol::Ll128]);
        assert_eq!(s.algorithms, Algorithm::ALL.to_vec());
        let s = TuningSpace::parse_override("LL128,Tree,ch2").unwrap();
        assert_eq!(
            s.singleton(),
            Some(Selection {
                algorithm: Algorithm::Tree,
                protocol: Protocol::Ll128,
                channels: 2,
            })
        );
        assert_eq!(
            TuningSpace::parse_override("auto").unwrap(),
            TuningSpace::modern()
        );
        let s = TuningSpace::parse_override("ll,simple").unwrap();
        assert_eq!(s.protocols, vec![Protocol::Ll, Protocol::Simple]);
    }

    #[test]
    fn override_rejects_unknown_and_empty() {
        assert!(matches!(
            TuningSpace::parse_override("fast"),
            Err(CommError::UnknownTuningToken { .. })
        ));
        assert!(matches!(
            TuningSpace::parse_override("ch0"),
            Err(CommError::UnknownTuningToken { .. })
        ));
    }

    #[test]
    fn selection_displays_compactly() {
        assert_eq!(Selection::PAPER.to_string(), "ring/Simple/c1");
        let s = Selection {
            algorithm: Algorithm::Tree,
            protocol: Protocol::Ll128,
            channels: 4,
        };
        assert_eq!(s.to_string(), "tree/LL128/c4");
    }

    #[test]
    fn protocol_wire_fractions_match_the_wire_formats() {
        // LL: 4 data bytes per 8-byte line; LL128: 120 per 128.
        assert_eq!(Protocol::Ll.wire_fraction(), (1, 2));
        assert_eq!(Protocol::Ll128.wire_fraction(), (15, 16));
        assert_eq!(Protocol::Simple.wire_fraction(), (1, 1));
    }

    #[test]
    fn chunk_granularity_orders_with_line_efficiency() {
        // Simple moves a full 512 KiB buffer slot per step; the
        // flagged-line protocols carry less data per slot.
        assert_eq!(Protocol::Simple.chunk_bytes(), 512 << 10);
        assert!(Protocol::Ll128.chunk_bytes() < Protocol::Simple.chunk_bytes());
        assert!(Protocol::Ll.chunk_bytes() < Protocol::Ll128.chunk_bytes());
        for p in Protocol::ALL {
            assert!(p.chunk_bytes() > 0);
        }
    }
}
