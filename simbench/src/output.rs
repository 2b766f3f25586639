//! Metrics and the result line the benchmark prints last.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
}

/// Builds a metric.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Whether `name` is a valid metric name: a letter or digit, then up to
/// 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Turns a label such as `shared miss (local)` into a metric-name
/// component such as `shared_miss_local`.
pub fn name_part(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.is_empty() && !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Non-finite values are reported as 0 and make the run incorrect, since
/// JSON has no representation for them; so do invalid names.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let finite = metrics
        .iter()
        .all(|m| m.value.is_finite() && valid_name(&m.name));
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && finite
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A small JSON reader for the self-tests: enough to check that the
/// result line and `BENCHMARK.json` parse.
#[cfg(test)]
pub mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Member `key` of an object.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> Result<(), String> {
            if self.s[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(())
            } else {
                Err(format!("expected {lit:?} at byte {}", self.i))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.s.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    let mut kv = Vec::new();
                    self.ws();
                    if self.eat("}").is_ok() {
                        return Ok(Value::Obj(kv));
                    }
                    loop {
                        self.ws();
                        let k = self.string()?;
                        self.ws();
                        self.eat(":")?;
                        kv.push((k, self.value()?));
                        self.ws();
                        if self.eat(",").is_err() {
                            self.eat("}")?;
                            return Ok(Value::Obj(kv));
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.eat("]").is_ok() {
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        if self.eat(",").is_err() {
                            self.eat("]")?;
                            return Ok(Value::Arr(items));
                        }
                    }
                }
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
                Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
                Some(b'n') => self.eat("null").map(|()| Value::Null),
                _ => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.i += 1;
                    }
                    let t =
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                    let ok = !t.is_empty() && !t.starts_with('+') && !t.starts_with('.');
                    match t.parse::<f64>() {
                        Ok(v) if ok => Ok(Value::Num(v)),
                        _ => Err(format!("bad number {t:?} at byte {start}")),
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat("\"")?;
            let start = self.i;
            while self.i < self.s.len() && self.s[self.i] != b'"' {
                if self.s[self.i] == b'\\' || self.s[self.i] < 0x20 {
                    return Err(format!("escape or control byte at {}", self.i));
                }
                self.i += 1;
            }
            let out =
                String::from_utf8(self.s[start..self.i].to_vec()).map_err(|e| e.to_string())?;
            self.eat("\"")?;
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "sim_s_p50",
            "account.cycles.shared_miss_local",
            "a-b.c_9",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "a(b)", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn labels_become_name_parts() {
        assert_eq!(name_part("shared miss (local)"), "shared_miss_local");
        assert_eq!(name_part("tlb miss"), "tlb_miss");
        assert_eq!(name_part("compute"), "compute");
    }

    #[test]
    fn result_line_parses_as_json() {
        let line = result_json(
            true,
            12,
            0,
            &[
                metric("sim_s_p50", 1.234_567_890_123, "s"),
                metric("tiny", 1.5e-9, "s"),
                metric("big", 3.0e15, "count"),
                metric("zero", 0.0, "count"),
            ],
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::Num(12.0)));
        let m = v.get("metrics").unwrap();
        let p50 = m.get("sim_s_p50").unwrap();
        assert_eq!(p50.get("value"), Some(&Value::Num(1.234_567_890_123)));
        assert_eq!(p50.get("unit"), Some(&Value::Str("s".into())));
        assert_eq!(
            m.get("tiny").unwrap().get("value"),
            Some(&Value::Num(1.5e-9))
        );
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let line = result_json(true, 1, 0, &[metric("x", f64::NAN, "s")]);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn json_reader_rejects_malformed_input() {
        for bad in ["{", "{\"a\": }", "[1,]", "01x", "{\"a\": 1} x", "+1"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
