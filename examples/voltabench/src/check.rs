//! Output checks. Every operation a workload issues runs through
//! [`Ops::run`], which catches a panic, times the operation and checks
//! its output, so a crash and a wrong number both count as one failed
//! operation.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dgx1_repro::prelude::{Cell, EpochReport};

use crate::trace::Tracer;

/// Attempted and failed operation counts, with the first failures
/// described, and the host time of every operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Host time in ms of every operation that returned, by key: the
    /// operation's name, with `#n` appended for its n-th repeat within
    /// a pass, so one key names the same step in every pass.
    pub times: BTreeMap<String, Vec<f64>>,
    /// How often each name has run in the current pass.
    repeats: HashMap<String, u32>,
    /// Host time of the current pass's operations, in ms.
    pass_ms: f64,
}

/// Failures described in full; later ones are only counted.
const MAX_NOTES: usize = 8;

impl Ops {
    /// Starts a pass: operation keys count repeats from here.
    pub fn start_pass(&mut self) {
        self.repeats.clear();
        self.pass_ms = 0.0;
    }

    /// Host time of the operations run since [`Ops::start_pass`], in ms.
    pub fn pass_ms(&self) -> f64 {
        self.pass_ms
    }

    /// Runs one operation: `f` under `catch_unwind`, timed, then `check`
    /// on its output. Returns the output unless `f` panicked.
    pub fn run<T>(
        &mut self,
        what: impl Display,
        t: &mut Tracer,
        f: impl FnOnce(&mut Tracer) -> T,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        self.attempted += 1;
        let depth = t.depth();
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| f(t))) {
            Ok(out) => {
                self.time(what.to_string(), start.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = check(&out) {
                    self.fail(format!("{what}: {e}"));
                }
                Some(out)
            }
            Err(panic) => {
                t.unwind_to(depth);
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                self.fail(format!("{what}: panicked: {msg}"));
                None
            }
        }
    }

    fn time(&mut self, name: String, ms: f64) {
        let repeat = self.repeats.entry(name.clone()).or_insert(0);
        let key = match *repeat {
            0 => name,
            n => format!("{name}#{n}"),
        };
        *repeat += 1;
        self.times.entry(key).or_default().push(ms);
        self.pass_ms += ms;
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }
}

/// The checked-in expected outputs of one workload: one line per
/// output, `<key> <fields>`. In recording mode every check passes and
/// the lines are kept, to write a new file from.
#[derive(Debug)]
pub struct Expected {
    lines: BTreeMap<String, String>,
    recording: bool,
    seen: BTreeSet<String>,
}

impl Expected {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let (key, fields) = line
                .split_once(' ')
                .ok_or_else(|| format!("expected line {} has no fields", n + 1))?;
            if lines.insert(key.to_string(), fields.to_string()).is_some() {
                return Err(format!("expected line {} repeats key {key}", n + 1));
            }
        }
        if lines.is_empty() {
            return Err("expected file is empty".to_string());
        }
        Ok(Expected {
            lines,
            recording: false,
            seen: BTreeSet::new(),
        })
    }

    pub fn recording() -> Self {
        Expected {
            lines: BTreeMap::new(),
            recording: true,
            seen: BTreeSet::new(),
        }
    }

    /// Checks one output against its expected line.
    pub fn check(&mut self, key: &str, got: &str) -> Result<(), String> {
        self.seen.insert(key.to_string());
        if self.recording {
            self.lines.insert(key.to_string(), got.to_string());
            return Ok(());
        }
        match self.lines.get(key) {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!("got `{got}`, expected `{want}`")),
            None => Err("no expected line for this key".to_string()),
        }
    }

    /// Ends a pass: every expected line must have been produced.
    pub fn end_pass(&mut self) -> Result<(), String> {
        let seen = std::mem::take(&mut self.seen);
        let missing: Vec<&String> = self.lines.keys().filter(|k| !seen.contains(*k)).collect();
        match missing.first() {
            None => Ok(()),
            Some(first) => Err(format!(
                "{} expected outputs were not produced, first {first}",
                missing.len()
            )),
        }
    }

    /// The file text for the lines recorded so far.
    pub fn render(&self) -> String {
        self.lines
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect()
    }
}

/// A grid cell as an expected-file key.
pub fn cell_key(c: &Cell) -> String {
    format!(
        "{}/{}/b{}/g{}/{:?}",
        c.workload.name(),
        c.comm.name(),
        c.batch,
        c.gpus,
        c.fault
    )
}

/// The simulated statistics checked for every cell.
pub fn report_line(r: &EpochReport) -> String {
    format!(
        "epoch_ns={} iter_ns={} events={} chain={}",
        r.epoch_time.as_nanos(),
        r.iter_time.as_nanos(),
        r.iter_trace.len(),
        r.critical_chain.len()
    )
}

/// Checks that `golden` holds `got` verbatim, naming the first line of
/// `got` it does not hold.
pub fn golden_contains(golden: &str, got: &str) -> Result<(), String> {
    if golden.contains(got) {
        return Ok(());
    }
    let bad = got
        .lines()
        .find(|l| !golden.lines().any(|g| g == *l))
        .unwrap_or("(line order differs)");
    Err(format!("output differs from the golden at `{bad}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_one_character_mutation_fails_exactly_one_operation() {
        let text = "a/b epoch_ns=10 iter_ns=5 events=3 chain=2\nc/d epoch_ns=11 iter_ns=6 events=3 chain=2\n";
        let mut expected = Expected::parse(text).unwrap();
        let mut ops = Ops::default();
        let mut t = Tracer::new();
        for (key, got) in [
            ("a/b", "epoch_ns=10 iter_ns=5 events=3 chain=2"),
            ("c/d", "epoch_ns=11 iter_ns=7 events=3 chain=2"),
        ] {
            ops.run(key, &mut t, |_| got, |g| expected.check(key, g));
        }
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert!(ops.notes[0].starts_with("c/d:"), "{:?}", ops.notes);
        assert!(expected.end_pass().is_ok());

        let golden = "== T ==\nrow 1.5\n\n";
        assert!(golden_contains(golden, "== T ==\nrow 1.5\n").is_ok());
        let err = golden_contains(golden, "== T ==\nrow 1.6\n").unwrap_err();
        assert!(err.contains("row 1.6"), "{err}");
    }

    #[test]
    fn repeated_steps_keep_one_key_per_position_in_every_pass() {
        let mut ops = Ops::default();
        let mut t = Tracer::new();
        for _ in 0..2 {
            ops.start_pass();
            for name in ["load", "answer", "load"] {
                ops.run(name, &mut t, |_| (), |_| Ok(()));
            }
            assert!(ops.pass_ms() >= 0.0);
        }
        let keys: Vec<(&str, usize)> = ops
            .times
            .iter()
            .map(|(k, v)| (k.as_str(), v.len()))
            .collect();
        assert_eq!(keys, [("answer", 2), ("load", 2), ("load#1", 2)]);
        // A panicked operation has no time.
        ops.run("boom", &mut t, |_| panic!("kaput"), |_: &()| Ok(()));
        assert!(!ops.times.contains_key("boom"));
    }

    #[test]
    fn panics_and_missing_outputs_are_failures() {
        let mut ops = Ops::default();
        let mut t = Tracer::new();
        let out: Option<()> = ops.run("boom", &mut t, |_| panic!("kaput"), |_| Ok(()));
        assert!(out.is_none());
        assert_eq!((ops.attempted, ops.failed), (1, 1));
        assert!(ops.notes[0].contains("kaput"));

        let mut expected = Expected::parse("k v\nj w\n").unwrap();
        expected.check("k", "v").unwrap();
        assert!(expected.end_pass().unwrap_err().contains('j'));
        assert!(expected.check("z", "v").is_err());
    }
}
