//! The committed reference outputs every run is checked against.
//!
//! `reference/digests.txt` holds one line per checked output:
//!
//! ```text
//! exp <experiment id> <digest>        run_experiment output text
//! run <family>/<kernel>/<input> <cpu-only> <pim-core> <pim-acc>
//!                                      RunReport of each mode's try_run
//! trace-events <n>                     events the traced sweep records
//! ```
//!
//! `<family>` is `paper` for the paper inputs, shared by `kernel-sweep`
//! and (traced) `traced-sweep`, or the seeded input family.
//! `reference/repro.json` and `reference/explain.json` are copies of the
//! repository's `BENCH_repro.json` (its `scorecard` rows are checked) and
//! `BENCH_explain.json` (its `records`), taken when the benchmark was
//! defined.

use std::collections::BTreeMap;

use pim_core::JsonValue;

const DIGESTS: &str = include_str!("../reference/digests.txt");
const REPRO_JSON: &str = include_str!("../reference/repro.json");
const EXPLAIN_JSON: &str = include_str!("../reference/explain.json");

/// Reference outputs, parsed.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    /// Experiment id → digest of its output text.
    pub experiments: BTreeMap<String, u64>,
    /// Input key → digests of its reports, in `ExecutionMode::ALL` order.
    pub runs: BTreeMap<String, [u64; 3]>,
    /// Events the traced sweep records.
    pub trace_events: Option<u64>,
    /// Scorecard rows as rendered JSON objects; `None` when not checked.
    pub scorecard: Option<Vec<String>>,
    /// `--explain` records as rendered JSON objects.
    pub explain: Vec<String>,
}

impl Reference {
    /// The references committed with the benchmark.
    ///
    /// # Errors
    ///
    /// A malformed reference file.
    pub fn committed() -> Result<Self, String> {
        let mut r = Self::parse_digests(DIGESTS)?;
        r.scorecard = Some(json_rows(REPRO_JSON, "scorecard")?);
        r.explain = json_rows(EXPLAIN_JSON, "records")?;
        Ok(r)
    }

    /// Parse digest lines in the `reference/digests.txt` format.
    ///
    /// # Errors
    ///
    /// A line that is not one of the three forms.
    pub fn parse_digests(text: &str) -> Result<Self, String> {
        let mut r = Self::default();
        for line in text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("{line:?}: {e}"));
            match f.as_slice() {
                ["exp", id, d] => {
                    r.experiments.insert((*id).to_string(), hex(d)?);
                }
                ["run", key, a, b, c] => {
                    r.runs
                        .insert((*key).to_string(), [hex(a)?, hex(b)?, hex(c)?]);
                }
                ["trace-events", n] => {
                    r.trace_events = Some(n.parse().map_err(|e| format!("{line:?}: {e}"))?);
                }
                _ => return Err(format!("bad reference line {line:?}")),
            }
        }
        Ok(r)
    }
}

/// Key of one kernel input in the reference.
pub fn run_key(family: &str, kernel_slug: &str, input: &str) -> String {
    format!("{family}/{kernel_slug}/{input}")
}

/// The objects of the array `key` of a JSON document, each rendered.
fn json_rows(doc: &str, key: &str) -> Result<Vec<String>, String> {
    let v = JsonValue::parse(doc).map_err(|e| format!("reference JSON: {e:?}"))?;
    let rows = v
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("reference JSON has no {key:?} array"))?;
    Ok(rows.iter().map(JsonValue::render).collect())
}

/// The rows of the `scorecard` array of a `repro --json` document.
///
/// # Errors
///
/// A document without a `scorecard` array.
pub fn scorecard_rows(doc: &str) -> Result<Vec<String>, String> {
    json_rows(doc, "scorecard")
}
