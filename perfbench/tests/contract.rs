//! The benchmark's own checks: `BENCHMARK.json` agrees with the metric
//! catalogue, every workload emits its metrics with their units, the
//! output checks are live, and inputs follow the seed.

use kv_perfbench::catalogue::{self, BOUNDS};
use kv_perfbench::{run, Outcome, Scale, Settings, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A parsed JSON value (just what `BENCHMARK.json` needs).
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
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }
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

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
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
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k:?}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                self.i = start;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes");
    v
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
}

fn settings(test: &str, workload: Workload, seed: u64, trace: bool) -> Settings {
    Settings {
        seed,
        seconds: 0.4,
        trace,
        scale: Scale::Smoke,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join("perfbench-tests")
            .join(format!("{test}-{}", workload.name())),
        flip_oracle: false,
    }
}

fn smoke(test: &str, workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(workload, &settings(test, workload, seed, trace)).expect("the run is made")
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let b = benchmark_json();
    let names: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);

    let e2e = b.get("end_to_end").arr();
    let defs = catalogue::end_to_end();
    assert_eq!(e2e.len(), defs.len());
    for ((m, d), bound) in e2e.iter().zip(&defs).zip(BOUNDS) {
        assert_eq!(m.get("name").str(), d.name);
        assert_eq!(m.get("unit").str(), d.unit);
        assert_eq!(m.get("better").str(), d.better);
        assert_eq!(m.get("bound"), &Json::Num(bound), "bound of {}", d.name);
    }

    let layer = b.get("per_layer").arr();
    let defs = catalogue::per_layer();
    assert_eq!(layer.len(), defs.len());
    for (m, d) in layer.iter().zip(&defs) {
        assert_eq!(m.get("name").str(), d.name);
        assert_eq!(m.get("unit").str(), d.unit, "unit of {}", d.name);
        assert_eq!(m.get("better").str(), d.better, "direction of {}", d.name);
    }
}

#[test]
fn every_workload_emits_its_metrics_with_units() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = smoke("emits", w, 7, trace);
            assert!(out.correct(), "{} trace={trace}: {out:?}", w.name());
            let mut emitted: Vec<&str> = out.metrics.names().collect();
            emitted.sort_unstable();
            // peak_rss_mb is added by `run` for every untraced run.
            let mut expected: Vec<String> = catalogue::measured_by(w, trace)
                .into_iter()
                .map(|d| d.name)
                .collect();
            expected.sort_unstable();
            assert_eq!(emitted, expected, "{} trace={trace}", w.name());
            for d in catalogue::measured_by(w, trace) {
                assert_eq!(
                    out.metrics.unit(&d.name),
                    Some(d.unit),
                    "unit of {}",
                    d.name
                );
                let v = out.metrics.get(&d.name).expect("emitted");
                assert!(v.is_finite(), "{} = {v}", d.name);
            }
        }
    }
}

#[test]
fn a_flipped_oracle_answer_fails_the_check() {
    for w in Workload::ALL {
        let mut s = settings("flip", w, 7, false);
        s.flip_oracle = true;
        // The pebble reference is checked against the known path winners
        // in set-up, so there a flipped answer may also abort the run.
        match run(w, &s) {
            Ok(out) => assert!(
                !out.correct(),
                "{}: a wrong oracle went unnoticed",
                w.name()
            ),
            Err(e) => panic!("{}: {e}", w.name()),
        }
    }
}

#[test]
fn the_seed_fixes_inputs_and_counters() {
    let counters = |out: &Outcome| -> Vec<(String, f64)> {
        out.metrics
            .names()
            .filter(|n| {
                n.starts_with("eval.")
                    || n.starts_with("pebble.arena")
                    || n.starts_with("pebble.lazy_arena")
            })
            .filter(|n| !n.contains("_ms"))
            .map(|n| (n.to_string(), out.metrics.get(n).expect("listed")))
            .collect()
    };
    for w in Workload::ALL {
        let a = smoke("seed-a", w, 11, true);
        let b = smoke("seed-b", w, 11, true);
        let c = smoke("seed-c", w, 12, true);
        assert_eq!(
            a.input_digest,
            b.input_digest,
            "{}: same seed, other inputs",
            w.name()
        );
        assert_ne!(
            a.input_digest,
            c.input_digest,
            "{}: other seed, same inputs",
            w.name()
        );
        assert_eq!(
            counters(&a),
            counters(&b),
            "{}: same seed, other counters",
            w.name()
        );
    }
}
