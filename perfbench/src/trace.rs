//! Wall-clock spans recorded around calls into the library's layers.
//!
//! Spans live in memory and are printed when the run ends. A span is
//! either *measured* here (the benchmark times a public call) or
//! *reported* (a stage timing the library returned, placed inside the
//! measured span of the call that returned it). Spans taken inside a
//! [`Tracer::section`] belong to the workload itself and count towards
//! coverage; spans taken outside any section time an inner call alone
//! and never count towards coverage.

use std::time::Instant;

/// Where a span's duration came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Timed by the benchmark around a public call.
    Measured,
    /// A stage timing returned by the library.
    Reported,
    /// An inner call timed alone, outside the workload's own steps.
    Alone,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub dur_s: f64,
    pub depth: usize,
    pub source: Source,
}

/// Span recorder; a disabled tracer records nothing and costs nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    depth: usize,
    in_section: bool,
    section_s: f64,
    covered_s: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            depth: 0,
            in_section: false,
            section_s: 0.0,
            covered_s: 0.0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let source = if self.in_section {
            Source::Measured
        } else {
            Source::Alone
        };
        let start_s = self.now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s,
            dur_s: 0.0,
            depth: self.depth,
            source,
        });
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        let dur_s = self.now() - start_s;
        self.spans[idx].dur_s = dur_s;
        if self.in_section && self.depth == 0 {
            self.covered_s += dur_s;
        }
        out
    }

    /// Records stage timings the library returned (in ms), laid end to
    /// end from `start_s`, one depth below the current span.
    pub fn reported(&mut self, start_s: f64, stages: &[(&'static str, f64)]) {
        if !self.on {
            return;
        }
        let mut at = start_s;
        for &(name, ms) in stages {
            self.spans.push(Span {
                name,
                start_s: at,
                dur_s: ms / 1e3,
                depth: self.depth,
                source: Source::Reported,
            });
            at += ms / 1e3;
        }
    }

    /// Runs `f` as part of the workload: its wall time is the
    /// denominator of coverage, its top-level spans the numerator.
    pub fn section<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let start = self.now();
        self.in_section = true;
        let out = f(self);
        self.in_section = false;
        self.section_s += self.now() - start;
        out
    }

    /// Sum of the durations of every span named `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .sum()
    }

    /// Mean duration of the spans named `name`, seconds, if any ran.
    pub fn mean(&self, name: &str) -> Option<f64> {
        let count = self.spans.iter().filter(|s| s.name == name).count();
        (count > 0).then(|| self.total(name) / count as f64)
    }

    /// Top-level span time inside sections ÷ section wall time.
    pub fn coverage(&self) -> f64 {
        if self.section_s > 0.0 {
            self.covered_s / self.section_s
        } else {
            0.0
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}
