//! In-memory spans for the traced run. Spans are recorded from the
//! benchmark's own files, around its calls into each layer; nothing inside
//! the program under test is instrumented. End-to-end metrics are never
//! taken from a traced run.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covered.
    pub count: u64,
    pub round: u32,
    pub attrs: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Stamped on every span opened from now on.
    pub round: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            round: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u64>) -> u64 {
        let id = self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            count: 0,
            round: self.round,
            attrs: Vec::new(),
        });
        id
    }

    pub fn close(&mut self, id: u64, count: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
    }

    pub fn attrs(&mut self, id: u64, attrs: &[(&'static str, f64)]) {
        self.spans[id as usize].attrs.extend_from_slice(attrs);
    }

    /// Records a span of `secs` that ended `ago` seconds before now: for
    /// intervals timed by the code that ran them.
    pub fn record_ended(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        secs: f64,
        ago: f64,
        count: u64,
    ) -> u64 {
        let id = self.open(name, parent);
        let span = &mut self.spans[id as usize];
        span.end_ns = span.end_ns.saturating_sub((ago * 1e9) as u64);
        span.start_ns = span.end_ns.saturating_sub((secs * 1e9) as u64);
        span.count = count;
        id
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut fields = vec![
                        ("id".to_string(), Json::Num(s.id as f64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("name".to_string(), Json::str(s.name)),
                        ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                        ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                        ("count".to_string(), Json::Num(s.count as f64)),
                        ("round".to_string(), Json::Num(f64::from(s.round))),
                    ];
                    fields.extend(s.attrs.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))));
                    Json::Obj(fields)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_recorded_spans_end_now() {
        let mut t = Tracer::default();
        let root = t.open("root", None);
        let a = t.open("a", Some(root));
        t.close(a, 10);
        let b = t.record_ended("b", Some(root), 0.5, 0.0, 5);
        t.close(root, 15);
        let spans = t.spans();
        assert_eq!(spans[a as usize].parent, Some(root));
        assert_eq!(
            (spans[b as usize].count, spans[root as usize].count),
            (5, 15)
        );
        assert!(spans[a as usize].start_ns >= spans[root as usize].start_ns);
        assert!(spans[a as usize].end_ns <= spans[root as usize].end_ns);
        let b_len = spans[b as usize].end_ns - spans[b as usize].start_ns;
        assert!(b_len <= 500_000_000, "clamped at the tracer's origin");
    }

    #[test]
    fn spans_serialise_with_their_attributes() {
        let mut t = Tracer {
            round: 3,
            ..Tracer::default()
        };
        let id = t.open("chunk", None);
        t.attrs(id, &[("expansions", 2.0)]);
        t.close(id, 65_536);
        let json = t.to_json();
        let span = &json.as_arr().unwrap()[0];
        assert_eq!(span.get("name").and_then(Json::as_str), Some("chunk"));
        assert_eq!(span.get("round").and_then(Json::as_f64), Some(3.0));
        assert_eq!(span.get("count").and_then(Json::as_f64), Some(65_536.0));
        assert_eq!(span.get("expansions").and_then(Json::as_f64), Some(2.0));
        assert_eq!(span.get("parent"), Some(&Json::Null));
    }
}
