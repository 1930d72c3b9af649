//! Benchmark self-test: every workload, at a tiny scale and in both modes,
//! must emit every metric `BENCHMARK.json` names, with its unit, pass its
//! correctness gates, and give every end-to-end metric a nonzero value.

use crate::{Opts, Scale, WORKLOADS};

/// `BENCHMARK.json` next to the benchmark's package.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

pub fn run() -> Result<(), String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("reading {BENCHMARK_JSON}: {e}"))?;
    let spec = Json::parse(&text)?;
    let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
        spec.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or(format!("a {key} entry lacks a name or unit"))
            })
            .collect()
    };
    let end_to_end = metrics("end_to_end")?;
    let per_layer = metrics("per_layer")?;
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    if let Some(w) = workloads.iter().find(|w| !WORKLOADS.contains(&w.as_str())) {
        return Err(format!("BENCHMARK.json names unknown workload {w}"));
    }
    for workload in WORKLOADS {
        for (trace, wanted) in [(false, &end_to_end), (true, &per_layer)] {
            let opts = Opts {
                workload: workload.to_string(),
                seed: 7,
                seconds: 1.0,
                trace,
                scale: Scale::TINY,
            };
            let report = crate::run(&opts);
            if !report.correct {
                return Err(format!(
                    "{workload} (trace {trace}) failed a correctness gate"
                ));
            }
            let emitted = report.emitted();
            for (name, unit) in wanted.iter() {
                let Some(&(_, u, value)) = emitted.iter().find(|(n, _, _)| n == name) else {
                    return Err(format!("{workload} (trace {trace}) does not emit {name}"));
                };
                if u != unit {
                    return Err(format!(
                        "{workload}: {name} is in {u}, BENCHMARK.json says {unit}"
                    ));
                }
                if !value.is_finite() || (!trace && value == 0.0) {
                    return Err(format!("{workload}: {name} reads {value}"));
                }
            }
            eprintln!(
                "[self-test] {workload} trace={trace}: {} metrics ok",
                wanted.len()
            );
        }
    }
    Ok(())
}

/// Just enough JSON to read `BENCHMARK.json`.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = parse_value(bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing bytes at offset {at}"));
        }
        Ok(value)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && b[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn expect(b: &[u8], at: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, at);
    if b.get(*at) == Some(&c) {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {}", c as char, *at))
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(b, at);
    match b.get(*at) {
        Some(b'{') => {
            *at += 1;
            let mut fields = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, at);
                let key = parse_string(b, at)?;
                expect(b, at, b':')?;
                fields.push((key, parse_value(b, at)?));
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", *at)),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, at)?);
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", *at)),
                }
            }
        }
        Some(b'"') => parse_string(b, at).map(Json::Str),
        Some(b't') if b[*at..].starts_with(b"true") => {
            *at += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*at..].starts_with(b"false") => {
            *at += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*at..].starts_with(b"null") => {
            *at += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *at;
            while *at < b.len() && matches!(b[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *at += 1;
            }
            std::str::from_utf8(&b[start..*at])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or(format!("bad value at offset {start}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

fn parse_string(b: &[u8], at: &mut usize) -> Result<String, String> {
    if b.get(*at) != Some(&b'"') {
        return Err(format!("expected a string at offset {}", *at));
    }
    *at += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*at) {
        *at += 1;
        match c {
            b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
            b'\\' => {
                let esc = *b.get(*at).ok_or("unterminated escape")?;
                *at += 1;
                out.push(match esc {
                    b'n' => b'\n',
                    b't' => b'\t',
                    other => other,
                });
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_json() {
        let v = Json::parse(r#"{"a": [1, -2.5e1, "x\"y"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1], Json::Num(-25.0));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("x\"y")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert!(Json::parse("[1,").is_err());
    }

    /// Every workload at a tiny scale emits every metric BENCHMARK.json
    /// names, with its unit.
    #[test]
    fn every_workload_emits_every_named_metric() {
        run().unwrap();
    }
}
