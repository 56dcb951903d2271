//! The benchmark's own checks: `BENCHMARK.json` and the metric registry
//! agree, names and units are well formed, every per-layer metric maps
//! to an end-to-end metric and a workload, and every reported tail
//! percentile has at least ten samples beyond it in one pass of its
//! scenario (every run makes at least one pass of each).

use std::collections::BTreeMap;

use perfbench::metrics::{END_TO_END, PER_LAYER, SCENARIOS, WORKLOADS};
use perfbench::stats::{beyond, min_samples};
use perfbench::{exact, input, serve, simulate};

/// A JSON value, as much of it as `BENCHMARK.json` uses.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    List(Vec<Json>),
    Obj(BTreeMap<String, Json>),
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
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "no escapes in BENCHMARK.json");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'"' => Json::Str(self.string()),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::List(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::List(items);
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                loop {
                    let k = self.string();
                    self.eat(b':');
                    let v = self.value();
                    assert!(map.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(map);
                    }
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.0123456789eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                Json::Num(
                    std::str::from_utf8(&self.s[start..self.i])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }
}

fn benchmark_json() -> BTreeMap<String, Json> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    match p.value() {
        Json::Obj(m) => m,
        other => panic!("not an object: {other:?}"),
    }
}

fn list<'a>(m: &'a BTreeMap<String, Json>, key: &str) -> &'a [Json] {
    match &m[key] {
        Json::List(v) => v,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn field<'a>(j: &'a Json, key: &str) -> &'a str {
    match j {
        Json::Obj(m) => match &m[key] {
            Json::Str(s) => s,
            other => panic!("{key} is not a string: {other:?}"),
        },
        other => panic!("not an object: {other:?}"),
    }
}

fn well_formed_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut seen = std::collections::HashSet::new();
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(well_formed_name(name), "{name}");
        assert!(seen.insert(name), "{name} used twice");
    }
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
}

#[test]
fn metric_counts_fit_the_limits() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
}

#[test]
fn every_per_layer_metric_maps_to_an_end_to_end_metric_and_a_scenario() {
    let traced =
        |name: &str| name.starts_with("traced.") && PER_LAYER.iter().any(|m| m.name == name);
    for m in PER_LAYER {
        assert!(
            !m.moves.is_empty() || traced(m.name),
            "{} moves nothing",
            m.name
        );
        for target in m.moves {
            assert!(
                END_TO_END.iter().any(|e| e.name == *target) || traced(target),
                "{} -> {target}",
                m.name
            );
        }
        assert!(
            m.scenario == "all" || SCENARIOS.contains(&m.scenario),
            "{}",
            m.name
        );
    }
    for m in END_TO_END {
        assert!(
            m.scenario == "all" || SCENARIOS.contains(&m.scenario),
            "{}",
            m.name
        );
    }
    // every workload runs every scenario, so each metric is measured on
    // every workload
    assert!(WORKLOADS.iter().all(|w| SCENARIOS.contains(w)));
}

#[test]
fn benchmark_json_lists_the_registry() {
    let b = benchmark_json();
    let keys: Vec<&str> = b.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads: Vec<&str> = list(&b, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e = list(&b, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(j, "name"), m.name);
        assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(field(j, "better"), m.better.as_str(), "{}", m.name);
        let Json::Obj(o) = j else { unreachable!() };
        let Json::Num(bound) = o["bound"] else {
            panic!("{} has no bound", m.name)
        };
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
    }
    let per_layer = list(&b, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (j, m) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(field(j, "name"), m.name);
        assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(field(j, "better"), m.better.as_str(), "{}", m.name);
    }
}

#[test]
fn every_tail_percentile_has_ten_samples_beyond_it() {
    let serve = serve::setup(input::DEV_SEED);
    let loops: usize = input::context(input::DEV_SEED)
        .models()
        .iter()
        .map(|m| m.loops.len())
        .sum();
    // (metric, samples one pass gives it, its tail level); every run
    // makes at least one pass of each scenario
    let tails = [
        ("warm_req_p99_us", serve.warm_reads(), 0.99),
        ("traced.cold_req_p99_us", serve.n_keys(), 0.99),
        ("traced.exact_solve_p95_ms", exact::CELLS, 0.95),
        ("traced.sim_loop_p95_ms", loops * simulate::CONFIGS, 0.95),
    ];
    for m in END_TO_END {
        if let Some(q) = m.tail {
            assert!(
                tails.iter().any(|t| t.0 == m.name && t.2 == q),
                "{}",
                m.name
            );
        }
    }
    for (name, n, q) in tails {
        assert!(n >= min_samples(q), "{name}: {n} samples per pass");
        assert!(beyond(n, q) >= 10, "{name}");
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "{name}"
        );
    }
}
