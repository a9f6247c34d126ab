//! The benchmark's own arithmetic and its result line.
//!
//! Kept free of any workload code so the unit tests at the bottom can pin
//! down exactly how medians, quartiles and tail percentiles are taken and
//! how the final JSON object is written.

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the benchmark's spread
/// figures are quoted in.  `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The percentiles a latency tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest reportable percentile of `n` samples: the highest candidate
/// that still has at least ten samples beyond it.  `None` below 20 samples
/// (not even the median has ten beyond it).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// True for a valid metric name: starts with a letter or digit, at most 64
/// characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything the final result line carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Correct when no operation failed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The single-line JSON object the benchmark prints last.  Values are
    /// written with Rust's shortest round-trip formatting, i.e. all digits.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
            // JSON has no NaN/inf; such a value already makes the run
            // incorrect, so print a number that cannot pass for a result.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(800), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["setup_s", "kernels.sample.wall_s", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "with space", "ünï", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    /// A minimal JSON reader, enough to read the result line back.
    mod json {
        #[derive(Debug, PartialEq)]
        pub enum Value {
            Bool(bool),
            Num(f64),
            Str(String),
            Obj(Vec<(String, Value)>),
        }

        pub fn parse(s: &str) -> Value {
            let mut p = Parser {
                s: s.as_bytes(),
                i: 0,
            };
            let v = p.value();
            p.ws();
            assert_eq!(p.i, p.s.len(), "trailing input");
            v
        }

        struct Parser<'a> {
            s: &'a [u8],
            i: usize,
        }

        impl Parser<'_> {
            fn ws(&mut self) {
                while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
                    self.i += 1;
                }
            }
            fn eat(&mut self, c: u8) {
                self.ws();
                assert_eq!(self.s[self.i], c, "at byte {}", self.i);
                self.i += 1;
            }
            fn string(&mut self) -> String {
                self.eat(b'"');
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are never emitted");
                    self.i += 1;
                }
                self.i += 1;
                String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
            }
            fn value(&mut self) -> Value {
                self.ws();
                match self.s[self.i] {
                    b'{' => {
                        self.i += 1;
                        let mut fields = Vec::new();
                        self.ws();
                        if self.s[self.i] == b'}' {
                            self.i += 1;
                            return Value::Obj(fields);
                        }
                        loop {
                            let key = self.string();
                            self.eat(b':');
                            fields.push((key, self.value()));
                            self.ws();
                            self.i += 1;
                            if self.s[self.i - 1] == b'}' {
                                return Value::Obj(fields);
                            }
                            assert_eq!(self.s[self.i - 1], b',');
                        }
                    }
                    b'"' => Value::Str(self.string()),
                    b't' | b'f' => {
                        let b = self.s[self.i] == b't';
                        self.i += if b { 4 } else { 5 };
                        Value::Bool(b)
                    }
                    _ => {
                        let start = self.i;
                        while self
                            .s
                            .get(self.i)
                            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                        {
                            self.i += 1;
                        }
                        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                        Value::Num(text.parse().unwrap())
                    }
                }
            }
        }
    }

    #[test]
    fn result_line_round_trips() {
        use json::Value;
        let outcome = Outcome {
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "train_tokens_per_s".into(),
                    value: 1_234_567.891_234_567,
                    unit: "tok/s",
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.1 + 0.2,
                    unit: "s",
                },
                Metric {
                    name: "nll_per_token".into(),
                    value: 7.0,
                    unit: "nats",
                },
                Metric {
                    name: "sim_tokens_per_s".into(),
                    value: 3.5e-7,
                    unit: "tok/s",
                },
            ],
        };
        let line = outcome.to_json();
        assert!(!line.contains('\n'));
        let Value::Obj(top) = json::parse(&line) else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(top[0].1, Value::Bool(true));
        assert_eq!(top[1].1, Value::Num(12.0));
        assert_eq!(top[2].1, Value::Num(0.0));
        let Value::Obj(metrics) = &top[3].1 else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), outcome.metrics.len());
        for ((name, v), m) in metrics.iter().zip(&outcome.metrics) {
            assert_eq!(name, &m.name);
            let Value::Obj(fields) = v else {
                panic!("metric is not an object")
            };
            // Every digit survives: the parsed value is bit-identical.
            assert_eq!(fields[0], ("value".into(), Value::Num(m.value)));
            assert_eq!(fields[0].1, Value::Num(f64::from_bits(m.value.to_bits())));
            assert_eq!(fields[1], ("unit".into(), Value::Str(m.unit.into())));
        }
    }

    #[test]
    fn failures_or_non_finite_values_make_the_run_incorrect() {
        let mut outcome = Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![Metric {
                name: "x".into(),
                value: 1.0,
                unit: "s",
            }],
        };
        assert!(!outcome.correct());
        assert!(outcome.to_json().starts_with("{\"correct\": false"));
        outcome.failed = 0;
        assert!(outcome.correct());
        outcome.metrics[0].value = f64::NAN;
        assert!(!outcome.correct());
        assert!(outcome.to_json().contains("\"value\": -1.0"));
    }
}
