//! Run results, the final JSON line, and the expected-digest checks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: String,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted (planning cycles or HTTP requests).
    pub attempted: u64,
    /// Operations that failed: planner or client errors, digest
    /// mismatches, replay mismatches.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Adds a metric. A non-finite value (a figure derived from no
    /// samples) counts as a failed operation.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let name = name.into();
        if !value.is_finite() {
            self.attempted += 1;
            self.fail(format!("{name}: no finite value ({value})"));
        }
        self.metrics.push(Metric {
            name,
            value,
            unit: unit.to_string(),
        });
    }

    /// Counts one attempted operation, and a failure (with a note) when
    /// `outcome` is an error.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Counts one failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        // keep the output readable when one defect fails every cycle
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// True when every attempted operation succeeded and nothing was
    /// skipped.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite number with every digit Rust prints for it (`null` never
/// appears: non-finite values, already counted as failures by
/// [`RunReport::metric`], are printed as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Directory holding the benchmark's sources and committed data files.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root the benchmark was built in.
pub fn repo_root() -> PathBuf {
    bench_dir()
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Scratch output directory (spans, state dirs), ignored by git.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Expected frontier digests, keyed by cell. A lookup miss or a
/// different digest is a failed operation whose note names the observed
/// digest, so the expected file can be updated by hand when a frontier
/// changes on purpose.
#[derive(Debug, Clone, Default)]
pub struct Expectations {
    digests: BTreeMap<String, String>,
}

impl Expectations {
    /// Expectations from explicit `(key, digest)` pairs.
    pub fn from_pairs<K: Into<String>, D: Into<String>>(
        pairs: impl IntoIterator<Item = (K, D)>,
    ) -> Self {
        Expectations {
            digests: pairs
                .into_iter()
                .map(|(k, d)| (k.into(), d.into()))
                .collect(),
        }
    }

    /// Checks `digest` for `key`.
    pub fn check(&self, key: &str, digest: &str) -> Result<(), String> {
        match self.digests.get(key) {
            Some(want) if want == digest => Ok(()),
            Some(want) => Err(format!("{key}: observed digest {digest}, expected {want}")),
            None => Err(format!("{key}: observed digest {digest}, none expected")),
        }
    }
}

/// The committed expected-digest file for the workloads that have no
/// digests elsewhere in the repository.
pub fn expected_path() -> PathBuf {
    bench_dir().join("expected_digests.txt")
}

/// Loads the `<workload> <key> <digest>` lines of `path` for `workload`.
pub fn load_expected(path: &Path, workload: &str) -> Result<Expectations, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut pairs = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, key, digest] = fields[..] else {
            return Err(format!("{}: malformed line `{line}`", path.display()));
        };
        if w == workload {
            pairs.push((key.to_string(), digest.to_string()));
        }
    }
    if pairs.is_empty() {
        return Err(format!("{}: no digests for {workload}", path.display()));
    }
    Ok(Expectations::from_pairs(pairs))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: the seed → input-order generator (no dependency on the
/// program's own RNG, so the benchmark's inputs cannot drift with it).
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SeedRng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
