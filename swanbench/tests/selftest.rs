//! Tiny-scale self-test of the benchmark: every workload, untraced and
//! traced, must print exactly the metrics `BENCHMARK.json` names, each
//! with its unit, and the traced layers' self times must sum to the
//! traced wall within the stated tolerance.
//!
//! Run with `cargo test --release --manifest-path swanbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Must equal `SELF_TIME_TOLERANCE_PCT` in the benchmark.
const TOLERANCE_PCT: f64 = 1.0;

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object looking up {key}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

/// A small JSON reader, enough for the benchmark's own files.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                        match self.s[self.i] {
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex =
                                    std::str::from_utf8(&self.s[self.i + 1..self.i + 5]).unwrap();
                                out.push(
                                    char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                                );
                                self.i += 4;
                            }
                            c => out.push(c as char),
                        }
                        self.i += 1;
                    } else {
                        let start = self.i;
                        while self.s[self.i] != b'"' && self.s[self.i] != b'\\' {
                            self.i += 1;
                        }
                        out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                    }
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }
}

fn definition() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json"))
}

/// (name, unit) of every metric in one section of `BENCHMARK.json`.
fn declared(def: &Json, section: &str) -> BTreeMap<String, String> {
    def.get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_swanbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "0.02"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result = Parser::parse(last);
    let keys: Vec<&String> = result.obj().keys().collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}: result keys"
    );
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: {stdout}"
    );
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0, "{workload}: {stdout}");
    result
}

fn check_metrics(workload: &str, result: &Json, want: &BTreeMap<String, String>) {
    let got = result.get("metrics").obj();
    let got_names: Vec<&String> = got.keys().collect();
    let want_names: Vec<&String> = want.keys().collect();
    assert_eq!(
        got_names, want_names,
        "{workload}: printed metrics differ from BENCHMARK.json"
    );
    for (name, unit) in want {
        let m = got[name].obj();
        assert_eq!(m["unit"].str(), unit, "{workload}: unit of {name}");
        assert!(
            m["value"].num().is_finite(),
            "{workload}: {name} is not finite"
        );
    }
}

#[test]
fn every_metric_is_printed_with_its_unit_and_self_times_sum_to_wall() {
    let def = definition();
    let end_to_end = declared(&def, "end_to_end");
    let per_layer = declared(&def, "per_layer");
    let workloads: Vec<String> = def
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    assert!(!workloads.is_empty());
    for w in &workloads {
        let plain = run(w, false);
        check_metrics(w, &plain, &end_to_end);
        for (name, m) in plain.get("metrics").obj() {
            assert!(
                m.get("value").num() > 0.0,
                "{w}: end-to-end metric {name} must not be 0"
            );
        }

        let traced = run(w, true);
        check_metrics(w, &traced, &per_layer);
        let metrics = traced.get("metrics").obj();
        let value = |name: &str| metrics[name].get("value").num();
        let self_sum: f64 = metrics
            .iter()
            .filter(|(name, _)| name.ends_with(".self_s") && !name.starts_with("data."))
            .map(|(_, m)| m.get("value").num())
            .sum();
        let wall = value("trace.wall_s");
        assert!(wall > 0.0, "{w}: traced wall is 0");
        let err_pct = 100.0 * (self_sum - wall).abs() / wall;
        assert!(
            err_pct <= TOLERANCE_PCT,
            "{w}: self times sum to {self_sum} s, wall {wall} s"
        );
        assert!(value("trace.self_err_pct") <= TOLERANCE_PCT);
    }
}
