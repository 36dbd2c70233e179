//! In-memory tracing on the benchmark's own clock.
//!
//! Spans are recorded only in this package, around the calls it makes into
//! the library: one operation span per op and, through the bench-owned
//! [`StageRecorder`] (a [`FlowObserver`]), one stage span per pipeline
//! stage. Everything stays in memory until the run ends. The library itself
//! stays clock-free.

use pim_repro::core_flow::{FlowObserver, Stage};
use pim_repro::passivity::enforce::EnforcementIteration;
use pim_repro::passivity::NormKind;
use std::time::Instant;

/// One timed interval. `start`/`end` are seconds on the run's clock;
/// `parent` indexes the enclosing span in the same slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// Self time of `spans[idx]`: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_time(spans: &[Span], idx: usize) -> f64 {
    let span = &spans[idx];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start.max(span.start), s.end.min(span.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in children {
        let from = a.max(reach);
        if b > from {
            covered += b - from;
        }
        reach = reach.max(b);
    }
    (span.end - span.start) - covered
}

/// One pipeline stage as seen by the [`StageRecorder`].
#[derive(Debug, Clone)]
pub struct StageRecord {
    pub stage: Stage,
    pub start: f64,
    pub end: f64,
    /// The stage reported `on_stage_failed` (a diverged enforcement or rung).
    pub failed: bool,
    /// Enforcement iterations delivered while this stage was open.
    pub iterations: Vec<EnforcementIteration>,
}

/// Bench-owned [`FlowObserver`]: timestamps stage boundaries on the run
/// clock and files every enforcement iteration under the open stage.
pub struct StageRecorder {
    origin: Instant,
    pub stages: Vec<StageRecord>,
    open: Option<usize>,
}

impl StageRecorder {
    pub fn new(origin: Instant) -> Self {
        StageRecorder { origin, stages: Vec::new(), open: None }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn close(&mut self, failed: bool) {
        let now = self.now();
        if let Some(i) = self.open.take() {
            self.stages[i].end = now;
            self.stages[i].failed = failed;
        }
    }

    /// The record of the first stage equal to `stage`.
    pub fn find(&self, stage: Stage) -> Option<&StageRecord> {
        self.stages.iter().find(|r| r.stage == stage)
    }
}

impl FlowObserver for StageRecorder {
    fn on_stage_start(&mut self, stage: Stage) {
        let now = self.now();
        self.stages.push(StageRecord {
            stage,
            start: now,
            end: now,
            failed: false,
            iterations: Vec::new(),
        });
        self.open = Some(self.stages.len() - 1);
    }

    fn on_stage_done(&mut self, _stage: Stage) {
        self.close(false);
    }

    fn on_stage_failed(&mut self, _stage: Stage) {
        self.close(true);
    }

    fn on_enforcement_iteration(&mut self, _norm: NormKind, event: &EnforcementIteration) {
        if let Some(i) = self.open {
            self.stages[i].iterations.push(*event);
        }
    }
}

/// The trace of one operation: its id (op index or board seed), its
/// interval, and the stages it ran.
#[derive(Debug, Clone)]
pub struct OpTrace {
    pub id: u64,
    pub start: f64,
    pub end: f64,
    pub stages: Vec<StageRecord>,
}

impl OpTrace {
    /// The op as a span tree: the op span first, its stage spans (named by
    /// the stage's `Display`) as children. The evaluation span runs to the
    /// end of the op, so it includes the accuracy-contract audit that
    /// follows the stage.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans =
            vec![Span { name: "op".into(), parent: None, start: self.start, end: self.end }];
        for r in &self.stages {
            let end = if r.stage == Stage::Evaluation { self.end } else { r.end };
            spans.push(Span { name: r.stage.to_string(), parent: Some(0), start: r.start, end });
        }
        spans
    }
}

/// Summed self time of the spans of every op whose name satisfies `pick`.
pub fn total_self_time(ops: &[OpTrace], pick: impl Fn(&str) -> bool) -> f64 {
    let mut total = 0.0;
    for op in ops {
        let spans = op.spans();
        for (i, s) in spans.iter().enumerate() {
            if pick(&s.name) {
                total += self_time(&spans, i);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span { name: name.into(), parent, start, end }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("op", None, 0.0, 10.0)];
        assert!(close(self_time(&spans, 0), 10.0));
    }

    #[test]
    fn adjacent_children_are_subtracted_once_each() {
        let spans = [
            span("op", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("b", Some(0), 3.0, 6.0),
        ];
        assert!(close(self_time(&spans, 0), 5.0));
        assert!(close(self_time(&spans, 1), 2.0));
        assert!(close(self_time(&spans, 2), 3.0));
    }

    #[test]
    fn nested_spans_count_only_direct_children() {
        // op ⊃ stage ⊃ kernel: the kernel reduces the stage, not the op.
        let spans = [
            span("op", None, 0.0, 10.0),
            span("stage", Some(0), 2.0, 8.0),
            span("kernel", Some(1), 3.0, 5.0),
        ];
        assert!(close(self_time(&spans, 0), 4.0));
        assert!(close(self_time(&spans, 1), 4.0));
        assert!(close(self_time(&spans, 2), 2.0));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_unioned_and_clipped() {
        let spans = [
            span("op", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 3.0, 5.0),
            span("c", Some(0), 9.0, 12.0),
        ];
        // Covered: [1, 5] and [9, 10].
        assert!(close(self_time(&spans, 0), 5.0));
    }

    #[test]
    fn evaluation_span_runs_to_the_end_of_the_op() {
        let op = OpTrace {
            id: 0,
            start: 0.0,
            end: 10.0,
            stages: vec![
                StageRecord {
                    stage: Stage::Sensitivity,
                    start: 0.5,
                    end: 2.0,
                    failed: false,
                    iterations: vec![],
                },
                StageRecord {
                    stage: Stage::Evaluation,
                    start: 7.0,
                    end: 8.0,
                    failed: false,
                    iterations: vec![],
                },
            ],
        };
        let spans = op.spans();
        assert!(close(spans[2].end, 10.0));
        assert!(close(self_time(&spans, 0), 0.5 + 5.0));
        assert!(close(total_self_time(&[op], |n| n == "evaluation"), 3.0));
    }
}
