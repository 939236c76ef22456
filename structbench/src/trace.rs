//! The benchmark's own spans: kept in memory while the run measures and
//! written to a JSON file when it ends. Nothing is recorded inside the
//! program under test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

/// An in-memory span sink; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Record a closed span and return its id (0 when disabled).
    pub fn record(&self, name: &str, parent: Option<u64>, start: Instant, end: Instant) -> u64 {
        if !self.enabled {
            return 0;
        }
        // Ids only need to be unique; nothing else is published through it.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
        id
    }

    /// Adopt spans recorded by another process (a replay child), shifting
    /// them to start at `offset` and hanging their roots under `parent`.
    pub fn adopt(&self, spans: Vec<Span>, offset: Instant, parent: u64) {
        if !self.enabled {
            return;
        }
        let base = self.us(offset);
        let mut list = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list");
        for mut s in spans {
            // Re-key into this tracer's id space.
            s.id += 1_000_000_000;
            s.parent = Some(s.parent.map_or(parent, |p| p + 1_000_000_000));
            s.start_us += base;
            s.end_us += base;
            list.push(s);
        }
    }

    /// All spans, as a JSON array.
    pub fn to_json(&self) -> String {
        let list = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list");
        let items: Vec<String> = list.iter().map(span_json).collect();
        format!("[{}]", items.join(",\n"))
    }
}

fn span_json(s: &Span) -> String {
    format!(
        "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
        s.id,
        s.parent.map_or("null".to_string(), |p| p.to_string()),
        s.name,
        s.start_us,
        s.end_us
    )
}

/// Parse the array [`Tracer::to_json`] wrote.
pub fn parse_spans(v: &serde::Value) -> Vec<Span> {
    use serde::Value;
    let get = |m: &Value, k: &str| match m {
        Value::Map(e) => e.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone()),
        _ => None,
    };
    let num = |v: Option<Value>| match v {
        Some(Value::UInt(n)) => Some(n as f64),
        Some(Value::Float(f)) => Some(f),
        _ => None,
    };
    let Value::Seq(items) = v else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|m| {
            let Some(Value::Str(name)) = get(m, "name") else {
                return None;
            };
            Some(Span {
                id: num(get(m, "id"))? as u64,
                parent: num(get(m, "parent")).map(|p| p as u64),
                name,
                start_us: num(get(m, "start_us"))?,
                end_us: num(get(m, "end_us"))?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", None, now, now), 0);
        assert_eq!(t.to_json(), "[]");
    }

    #[test]
    fn spans_round_trip_through_json() {
        let t = Tracer::new(true);
        let now = Instant::now();
        let root = t.record("replay", None, now, now);
        t.record("replay/engine.load", Some(root), now, Instant::now());
        let v: serde::Value = serde_json::from_str(&t.to_json()).unwrap();
        let spans = parse_spans(&v);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[1].end_us >= spans[1].start_us);

        let parent = Tracer::new(true);
        let anchor = parent.record("client/replay", None, Instant::now(), Instant::now());
        parent.adopt(spans, Instant::now(), anchor);
        let adopted = parse_spans(&serde_json::from_str(&parent.to_json()).unwrap());
        assert_eq!(adopted.len(), 3);
        assert_eq!(adopted[1].parent, Some(anchor));
        assert_eq!(adopted[2].parent, Some(adopted[1].id));
    }
}
