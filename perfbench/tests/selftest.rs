//! Self-test of perfbench at smoke size: output checks catch a perturbed
//! output, span self times nest, and inputs follow the seed.

use std::sync::Arc;

use perfbench::metrics::{per_layer_specs, END_TO_END};
use perfbench::reference::Reference;
use perfbench::spans::{self_time_ns, Span, SpanId, Spans};
use perfbench::workloads::{prepare, run, Outcome, Workload};
use pim_core::JsonValue;

fn smoke(w: Workload, seed: u64, reference: &Reference, spans: &Arc<Spans>) -> Outcome {
    spans.scope("pass", SpanId::ROOT, |root| {
        run(w, prepare(w, seed, true), reference, spans, root)
    })
}

/// A reference made from one run's own outputs.
fn reference_of(w: Workload, seed: u64) -> Reference {
    let first = smoke(w, seed, &Reference::default(), &Arc::new(Spans::new(false)));
    assert!(first.attempted > 0);
    Reference::parse_digests(&first.digests.join("\n")).expect("emitted digests parse")
}

#[test]
fn perturbed_output_counts_as_a_failure() {
    let off = Arc::new(Spans::new(false));
    for w in [Workload::KernelSweep, Workload::TracedSweep] {
        let mut reference = reference_of(w, 3);
        let clean = smoke(w, 3, &reference, &off);
        assert_eq!(clean.failed, 0, "{w:?}: a rerun must match its own outputs");

        let key = reference.runs.keys().next().expect("runs recorded").clone();
        reference.runs.get_mut(&key).expect("key exists")[1] ^= 1;
        let perturbed = smoke(w, 3, &reference, &off);
        assert_eq!(perturbed.attempted, clean.attempted);
        assert_eq!(
            perturbed.failed, 1,
            "{w:?}: one perturbed run digest, one failure"
        );
    }

    let mut reference = reference_of(Workload::TracedSweep, 0);
    reference.trace_events = reference.trace_events.map(|n| n + 1);
    assert_eq!(
        smoke(Workload::TracedSweep, 0, &reference, &off).failed,
        1,
        "event count is exact"
    );
}

#[test]
fn traced_reports_equal_untraced_ones() {
    // The paper-input digests of an untraced sweep must check out when
    // the same inputs run with a tracer attached.
    let untraced = reference_of(Workload::KernelSweep, 0);
    let mut reference = reference_of(Workload::TracedSweep, 0);
    reference.runs = untraced.runs;
    let traced = smoke(
        Workload::TracedSweep,
        0,
        &reference,
        &Arc::new(Spans::new(false)),
    );
    assert_eq!(traced.failed, 0);
}

fn check_nesting(spans: &[Span]) {
    for (i, s) in spans.iter().enumerate() {
        let children: Vec<&Span> = spans.iter().filter(|c| c.parent == Some(i)).collect();
        let child_self: u64 = spans
            .iter()
            .enumerate()
            .filter(|(_, c)| c.parent == Some(i))
            .map(|(j, _)| self_time_ns(spans, j))
            .sum();
        assert!(
            child_self <= s.duration_ns(),
            "{}: children's self times exceed the span",
            s.name
        );
        for c in children {
            assert!(
                c.start_ns >= s.start_ns && c.end_ns <= s.end_ns,
                "{} escapes {}",
                c.name,
                s.name
            );
        }
        assert!(self_time_ns(spans, i) <= s.duration_ns());
    }
    let total_self: u64 = (0..spans.len()).map(|i| self_time_ns(spans, i)).sum();
    assert!(
        total_self <= spans[0].duration_ns(),
        "self times sum past the root span"
    );
}

#[test]
fn span_self_times_sum_to_no_more_than_their_parent() {
    for w in [Workload::KernelSweep, Workload::TracedSweep] {
        let spans = Arc::new(Spans::new(true));
        smoke(w, 1, &Reference::default(), &spans);
        let recorded = spans.snapshot();
        assert!(
            recorded.len() > 3,
            "{w:?} recorded {} spans",
            recorded.len()
        );
        assert_eq!(recorded[0].name, "pass");
        check_nesting(&recorded);
    }

    // Overlapping children are counted once; grandchildren only count
    // against their own parent.
    let span = |name: &str, parent, start_ns, end_ns| Span {
        name: name.into(),
        parent,
        start_ns,
        end_ns,
    };
    let spans = [
        span("p", None, 0, 100),
        span("a", Some(0), 10, 40),
        span("b", Some(0), 30, 60),
        span("c", Some(1), 20, 30),
    ];
    assert_eq!(self_time_ns(&spans, 0), 50);
    assert_eq!(self_time_ns(&spans, 1), 20);
    assert_eq!(self_time_ns(&spans, 3), 10);
}

#[test]
fn disabled_spans_record_nothing() {
    let spans = Spans::new(false);
    let id = spans.begin("x", SpanId::ROOT);
    spans.end(id);
    assert!(spans.snapshot().is_empty());
}

#[test]
fn inputs_follow_the_seed() {
    let off = Arc::new(Spans::new(false));
    let a = smoke(Workload::KernelSweep, 5, &Reference::default(), &off);
    let b = smoke(Workload::KernelSweep, 5, &Reference::default(), &off);
    assert_eq!(a.counts, b.counts, "same seed, same work counts");
    assert_eq!(a.digests, b.digests, "same seed, same outputs");

    let c = smoke(Workload::KernelSweep, 6, &Reference::default(), &off);
    let variant = |o: &Outcome| -> Vec<String> {
        o.digests
            .iter()
            .filter(|l| !l.starts_with("run paper/"))
            .cloned()
            .collect()
    };
    assert_eq!(variant(&a).len(), variant(&c).len());
    assert_ne!(
        variant(&a),
        variant(&c),
        "another seed runs other variant inputs"
    );
}

#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let want: Vec<_> = per_layer_specs()
        .into_iter()
        .map(|s| (s.name, s.unit.to_string(), s.better.to_string()))
        .collect();
    assert_eq!(names("per_layer"), want);
    let e2e: Vec<(String, String)> = names("end_to_end")
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, want);
}
