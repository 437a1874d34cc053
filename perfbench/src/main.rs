//! Run one benchmark workload and print its result.
//!
//! ```text
//! perfbench --workload <repro-full|kernel-sweep|traced-sweep> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>] [--emit-reference]
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A run sets up and times one or
//! more passes of the workload with the benchmark's spans off, and reports
//! the end-to-end metrics as medians over them. `--trace 1` then runs
//! one more pass with the spans on, reports the per-layer metrics and
//! writes the spans to `<out-dir>/spans-<workload>.json`.
//! `--emit-reference` prints the passes' outputs in the
//! `reference/digests.txt` format instead. Each pass does a fixed amount
//! of work, so its wall time compares across commits; `--seconds` is the
//! nominal run length in `BENCHMARK.json` and does not change the work.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use perfbench::host;
use perfbench::metrics::{per_layer, per_layer_specs, TracedRun, END_TO_END};
use perfbench::reference::Reference;
use perfbench::spans::{self, SpanId, Spans};
use perfbench::workloads::{self, Outcome, Prepared, Workload};

/// Set-ups per run at least; `setup_s` is their median.
const MIN_SETUPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <repro-full|kernel-sweep|traced-sweep> \
     --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--emit-reference]";

struct Cli {
    workload: Workload,
    seed: u64,
    trace: bool,
    out_dir: Option<PathBuf>,
    emit: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut out_dir, mut emit) = (None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--emit-reference" {
            emit = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    seconds.ok_or("--seconds is required")?;
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace: trace.unwrap_or(false),
        out_dir,
        emit,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One timed pass: wall and CPU seconds around the workload call.
fn timed(
    w: Workload,
    p: Prepared,
    reference: &Reference,
    spans: &Arc<Spans>,
) -> Result<(Outcome, f64, f64), String> {
    let cpu_now = || host::cpu_s().ok_or("cannot read CPU time from /proc/self/stat");
    let cpu0 = cpu_now()?;
    let t0 = Instant::now();
    let out = spans.scope("pass", SpanId::ROOT, |root| {
        workloads::run(w, p, reference, spans, root)
    });
    let wall = t0.elapsed().as_secs_f64();
    Ok((out, wall, cpu_now()? - cpu0))
}

/// Timed passes per run; `wall_s` and `cpu_s` are medians over them.
/// A `kernel-sweep` pass runs the paper inputs and one variant family,
/// and each pass takes the next family, so no variant repeats in a run.
fn passes(w: Workload) -> u64 {
    match w {
        Workload::ReproFull => 1,
        Workload::KernelSweep | Workload::TracedSweep => 3,
    }
}

/// One set-up: parse the committed references and build the inputs.
fn setup(w: Workload, seed: u64) -> Result<(f64, Reference, Prepared), String> {
    let t = Instant::now();
    let reference = Reference::committed()?;
    let prepared = workloads::prepare(w, seed, false);
    Ok((t.elapsed().as_secs_f64(), reference, prepared))
}

fn run(cli: &Cli) -> Result<String, String> {
    let w = cli.workload;
    let n = passes(w);
    let mut setup_s = Vec::new();
    // Workloads with fewer passes than MIN_SETUPS set up more often.
    for _ in n..MIN_SETUPS as u64 {
        setup_s.push(setup(w, cli.seed)?.0);
    }
    let off = Arc::new(Spans::new(false));
    let (mut wall_s, mut cpu_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut digests) = (0, 0, Vec::new());
    for pass in 0..n {
        let (s, reference, prepared) = setup(w, cli.seed.wrapping_add(pass))?;
        setup_s.push(s);
        let (out, wall, cpu) = timed(w, prepared, &reference, &off)?;
        eprintln!(
            "perfbench: pass {} of {n}: {wall:.3} s wall, {cpu:.2} s CPU",
            pass + 1
        );
        wall_s.push(wall);
        cpu_s.push(cpu);
        attempted += out.attempted;
        failed += out.failed;
        digests.extend(out.digests);
    }
    let (setup_s, wall_s, cpu_s) = (
        median(&mut setup_s),
        median(&mut wall_s),
        median(&mut cpu_s),
    );
    if cli.emit {
        return Ok(digests.join("\n"));
    }
    if !cli.trace {
        let rss = host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
        let values = [wall_s, cpu_s, rss, setup_s];
        let metrics: Vec<(String, f64, &str)> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u))
            .collect();
        return result_line(attempted, failed, &metrics);
    }

    let recorder = Arc::new(Spans::new(true));
    let (_, reference, prepared) = setup(w, cli.seed)?;
    let (traced, traced_wall_s, _) = timed(w, prepared, &reference, &recorder)?;
    let recorded = recorder.snapshot();
    if let Some(dir) = &cli.out_dir {
        let path = dir.join(format!("spans-{}.json", w.name()));
        std::fs::write(&path, spans::to_json(&recorded))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "perfbench: wrote {} spans to {}",
            recorded.len(),
            path.display()
        );
    }
    let values = per_layer(
        &recorded,
        &traced.counts,
        TracedRun {
            build_s: setup_s,
            untraced_wall_s: wall_s,
            traced_wall_s,
        },
    );
    let metrics: Vec<(String, f64, &str)> = per_layer_specs()
        .into_iter()
        .map(|s| (s.name.clone(), values[&s.name], s.unit))
        .collect();
    result_line(
        attempted + traced.attempted,
        failed + traced.failed,
        &metrics,
    )
}

/// The result object, on one line.
fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, v, unit) in metrics {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    ))
}
