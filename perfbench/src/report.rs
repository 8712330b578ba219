//! The result schema: one JSON line per run with the stamp, the checked
//! outcome and every metric. `sweep.py` reads and compares these records.

use std::fmt::Write as _;

pub const SCHEMA: &str = "carve-perfbench-v1";

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a count or a single measurement).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, samples: usize) -> Self {
        Metric {
            name: name.to_owned(),
            // An empty float sum is -0.0; report it as 0.
            value: value + 0.0,
            unit: unit.to_owned(),
            samples: samples as u64,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub stamp: Vec<(String, String)>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the run reports on its last line: every end-to-end
    /// metric untraced, every per-layer metric traced.
    pub metrics: Vec<Metric>,
    /// Everything else the run measured, with sample counts.
    pub detail: Vec<Metric>,
    pub failures: Vec<String>,
}

fn esc(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite number with all its digits (`Display` of `f64` is the
/// shortest string that reads back to the same value).
fn num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn metrics_obj(out: &mut String, ms: &[Metric], with_samples: bool) {
    out.push('{');
    for (i, m) in ms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        esc(out, &m.name);
        out.push_str(": {\"value\": ");
        num(out, m.value);
        out.push_str(", \"unit\": ");
        esc(out, &m.unit);
        if with_samples {
            let _ = write!(out, ", \"samples\": {}", m.samples);
        }
        out.push('}');
    }
    out.push('}');
}

impl Report {
    /// The contract's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
            self.correct, self.attempted, self.failed
        );
        metrics_obj(&mut s, &self.metrics, false);
        s.push('}');
        s
    }

    /// The full record on one line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\": ");
        esc(&mut s, SCHEMA);
        s.push_str(", \"workload\": ");
        esc(&mut s, &self.workload);
        let _ = write!(
            s,
            ", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"stamp\": {{",
            self.seed, self.seconds, self.trace
        );
        for (i, (k, v)) in self.stamp.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            esc(&mut s, k);
            s.push_str(": ");
            esc(&mut s, v);
        }
        let _ = write!(
            s,
            "}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
            self.correct, self.attempted, self.failed
        );
        metrics_obj(&mut s, &self.metrics, true);
        s.push_str(", \"detail\": ");
        metrics_obj(&mut s, &self.detail, true);
        s.push_str(", \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            esc(&mut s, f);
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_io::json::Json;

    fn sample(value: f64) -> Report {
        Report {
            workload: "cold_solve".into(),
            seed: 3,
            seconds: 25,
            trace: false,
            stamp: vec![
                ("nproc".into(), "2".into()),
                ("cpu_model".into(), "Some \"quoted\" CPU\\x".into()),
                ("commit".into(), "abc".into()),
            ],
            correct: true,
            attempted: 14,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.312_345_678_901_234_5, "s", 14),
                Metric::new("time_to_solution_s", value, "s", 14),
            ],
            detail: vec![
                Metric::new("la.iterations", 1330.0, "count", 1),
                Metric::new("fem.eval_s", 1.0e-7, "s", 14),
            ],
            failures: vec!["unit 3: line\nbreak".into()],
        }
    }

    fn metrics_of(j: &Json, key: &str) -> Vec<Metric> {
        let Some(Json::Obj(fields)) = j.get(key) else {
            panic!("`{key}` is not an object")
        };
        fields
            .iter()
            .map(|(name, m)| Metric {
                name: name.clone(),
                value: m.get("value").and_then(Json::as_f64).expect("value"),
                unit: m.get("unit").and_then(Json::as_str).expect("unit").into(),
                samples: m.get("samples").and_then(Json::as_f64).expect("samples") as u64,
            })
            .collect()
    }

    /// The full record reads back field for field, every value bit for
    /// bit, through a strict JSON parser.
    #[test]
    fn full_record_reads_back_bit_for_bit() {
        let r = sample(1.234_567_890_123_456_7e-3);
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).expect("parses");
        let str_of = |k: &str| j.get(k).and_then(Json::as_str).expect(k).to_owned();
        let num_of = |k: &str| j.get(k).and_then(Json::as_f64).expect(k) as u64;
        let bool_of = |k: &str| j.get(k).and_then(Json::as_bool).expect(k);
        let Some(Json::Obj(stamp)) = j.get("stamp") else {
            panic!("stamp is not an object")
        };
        let back = Report {
            workload: str_of("workload"),
            seed: num_of("seed"),
            seconds: num_of("seconds"),
            trace: bool_of("trace"),
            stamp: stamp
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().expect("stamp value").into()))
                .collect(),
            correct: bool_of("correct"),
            attempted: num_of("attempted"),
            failed: num_of("failed"),
            metrics: metrics_of(&j, "metrics"),
            detail: metrics_of(&j, "detail"),
            failures: j
                .get("failures")
                .and_then(Json::as_arr)
                .expect("failures")
                .iter()
                .map(|f| f.as_str().expect("failure").into())
                .collect(),
        };
        assert_eq!(str_of("schema"), SCHEMA);
        assert_eq!(back, r);
        for (a, b) in back.metrics.iter().chain(&back.detail).zip(r.metrics.iter().chain(&r.detail)) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.name);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = sample(1.5);
        let j = Json::parse(&r.result_line()).expect("parses");
        let Json::Obj(fields) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = j
            .get("metrics")
            .and_then(|m| m.get("time_to_solution_s"))
            .unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        assert!(m.get("samples").is_none());
    }
}
