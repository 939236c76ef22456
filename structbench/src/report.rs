//! Counter and span snapshots from the program's JSON run report — the
//! live `GET /stats` body or a `STRUCTMINE_REPORT` file — and the deltas
//! between two of them.

use std::collections::BTreeMap;

use serde::Value;

/// Span paths join their labels with this separator (`a>b`).
const SEP: char = '>';

/// One report's counters and per-path span totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    /// Span path → (closed count, total wall ms).
    pub spans: BTreeMap<String, (u64, f64)>,
    /// The report's process wall time in ms.
    pub total_wall_ms: f64,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

impl Snapshot {
    /// Parse a run report.
    pub fn parse(json: &str) -> Result<Snapshot, String> {
        let v: Value = serde_json::from_str(json).map_err(|e| format!("parse report: {e}"))?;
        let mut snap = Snapshot::default();
        if let Some(Value::Map(entries)) = field(&v, "counters") {
            for (k, c) in entries {
                if let Value::UInt(n) = c {
                    snap.counters.insert(k.clone(), *n);
                }
            }
        } else {
            return Err("report has no counters".into());
        }
        let spans = field(&v, "spans").ok_or("report has no spans")?;
        snap.total_wall_ms = field(spans, "total_wall_ms")
            .and_then(number)
            .unwrap_or(0.0);
        if let Some(Value::Seq(nodes)) = field(spans, "tree") {
            walk(nodes, "", &mut snap.spans);
        }
        Ok(snap)
    }

    /// What happened between `before` and `self` (counters and spans only
    /// grow; anything absent counts as zero).
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let b = before.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(b))
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, &(n, ms))| {
                let (bn, bms) = before.spans.get(k).copied().unwrap_or((0, 0.0));
                (k.clone(), (n.saturating_sub(bn), ms - bms))
            })
            .collect();
        Snapshot {
            counters,
            spans,
            total_wall_ms: self.total_wall_ms - before.total_wall_ms,
        }
    }

    /// Add another delta into this one (counters and spans sum).
    pub fn accumulate(&mut self, d: &Snapshot) {
        for (k, &v) in &d.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &(n, ms)) in &d.spans {
            let e = self.spans.entry(k.clone()).or_insert((0, 0.0));
            e.0 += n;
            e.1 += ms;
        }
        self.total_wall_ms += d.total_wall_ms;
    }

    /// A counter's value (zero when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn counter_prefix_sum(&self, prefix: &str) -> f64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v as f64)
            .sum()
    }

    /// (count, wall ms) of one exact span path, e.g. `serve/request`.
    pub fn span(&self, path: &str) -> (u64, f64) {
        self.spans.get(path).copied().unwrap_or((0, 0.0))
    }

    /// Total wall ms of every span labelled `label`, wherever it nests.
    pub fn label_ms(&self, label: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(path, _)| path.rsplit(SEP).next() == Some(label))
            .map(|(_, &(_, ms))| ms)
            .sum()
    }
}

fn walk(nodes: &[Value], prefix: &str, out: &mut BTreeMap<String, (u64, f64)>) {
    for node in nodes {
        let Some(Value::Str(label)) = field(node, "label") else {
            continue;
        };
        let path = if prefix.is_empty() {
            label.clone()
        } else {
            format!("{prefix}{SEP}{label}")
        };
        let count = field(node, "count").and_then(number).unwrap_or(0.0) as u64;
        let wall = field(node, "wall_ms").and_then(number).unwrap_or(0.0);
        out.insert(path.clone(), (count, wall));
        if let Some(Value::Seq(children)) = field(node, "children") {
            walk(children, &path, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(requests: u64, request_ms: f64, docs: u64) -> String {
        format!(
            r#"{{"schema_version":1,"binary":"structmine-serve","created_unix_ms":1,
            "config":{{"fingerprint":"00","env":{{}}}},
            "counters":{{"serve.docs":{docs},"store.generation.1.hits":2,"store.generation.2.misses":1,"serve.batches":4}},
            "spans":{{"total_wall_ms":100.5,"attributed_ms":50.0,"tree":[
              {{"label":"serve/request","count":{requests},"wall_ms":{request_ms},"threads":[1],
                "children":[{{"label":"engine/ingest","count":1,"wall_ms":3.0,"threads":[1],"children":[]}}]}},
              {{"label":"serve/batch-classify","count":4,"wall_ms":8.0,"threads":[2],
                "children":[{{"label":"engine/classify","count":4,"wall_ms":7.5,"threads":[2],"children":[]}}]}}
            ]}}}}"#
        )
    }

    #[test]
    fn parses_counters_and_span_paths() {
        let s = Snapshot::parse(&report(10, 40.0, 64)).unwrap();
        assert_eq!(s.counter("serve.docs"), 64.0);
        assert_eq!(s.counter("absent"), 0.0);
        assert_eq!(s.span("serve/request"), (10, 40.0));
        assert_eq!(s.span("serve/request>engine/ingest"), (1, 3.0));
        assert_eq!(s.label_ms("engine/classify"), 7.5);
        assert_eq!(s.counter_prefix_sum("store.generation."), 3.0);
        assert_eq!(s.total_wall_ms, 100.5);
        assert!(Snapshot::parse("{}").is_err());
    }

    #[test]
    fn deltas_between_snapshots() {
        let a = Snapshot::parse(&report(10, 40.0, 64)).unwrap();
        let b = Snapshot::parse(&report(25, 100.0, 160)).unwrap();
        let d = b.since(&a);
        assert_eq!(d.counter("serve.docs"), 96.0);
        assert_eq!(d.counter("serve.batches"), 0.0);
        assert_eq!(d.span("serve/request"), (15, 60.0));
        assert_eq!(d.span("serve/request>engine/ingest"), (0, 0.0));
        // A counter that first appears in the later snapshot counts whole.
        let mut c = b.clone();
        c.counters.insert("serve.rejections".into(), 2);
        assert_eq!(c.since(&a).counter("serve.rejections"), 2.0);
        // Two phases' deltas add up.
        let mut sum = d.clone();
        sum.accumulate(&d);
        assert_eq!(sum.counter("serve.docs"), 192.0);
        assert_eq!(sum.span("serve/request"), (30, 120.0));
    }
}
