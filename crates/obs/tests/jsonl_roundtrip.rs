//! End-to-end schema check: events written through a real [`JsonlSink`]
//! file must parse back line-by-line with the documented four-key shape.
//!
//! Kept to a single `#[test]` because the sink is process-global.

use etsb_obs::{json, obs_event, obs_span, set_sink, JsonlSink};

#[test]
fn jsonl_sink_round_trips_the_event_schema() {
    let path = std::env::temp_dir().join("etsb_obs_roundtrip.jsonl");
    let path = path.to_str().expect("utf-8 temp path");
    let sink = JsonlSink::create(path).expect("temp trace file");
    set_sink(Some(Box::new(sink)));

    {
        let _outer = obs_span!("outer", "items" => 5usize, "label" => "a \"quoted\" name");
        obs_event!("ticks", "value" => 3u64);
        {
            let _inner = obs_span!("inner");
            obs_event!("loss", "value" => 0.25);
        }
        obs_event!("checkpoint", "epoch" => 2usize, "loss" => 0.5f64);
    }
    set_sink(None);

    let text = std::fs::read_to_string(path).expect("trace file readable");
    std::fs::remove_file(path).ok();
    let lines: Vec<&str> = text.lines().collect();
    // span_start/end x2, three events.
    assert_eq!(lines.len(), 7, "unexpected trace: {text}");

    let kinds = ["span_start", "span_end", "event"];
    let mut last_ts = 0.0;
    for line in &lines {
        let parsed = json::parse(line).expect("every trace line is valid JSON");
        for key in ["ts_rel_us", "span", "kind", "fields"] {
            assert!(parsed.get(key).is_some(), "missing {key} in {line}");
        }
        let kind = parsed.get("kind").and_then(json::Value::as_str).unwrap();
        assert!(kinds.contains(&kind), "unknown kind {kind}");
        let ts = parsed
            .get("ts_rel_us")
            .and_then(json::Value::as_f64)
            .unwrap();
        assert!(ts >= last_ts, "timestamps must be non-decreasing");
        last_ts = ts;
        if kind == "span_end" {
            assert!(
                parsed.get("fields").and_then(|f| f.get("dur_us")).is_some(),
                "span_end without dur_us: {line}"
            );
        }
    }

    // Nesting is visible in the span paths: the inner event is attributed
    // to `outer.inner`, the trailing event back to `outer`.
    let span_of = |i: usize| {
        json::parse(lines[i])
            .unwrap()
            .get("span")
            .and_then(json::Value::as_str)
            .unwrap()
            .to_string()
    };
    assert_eq!(span_of(0), "outer");
    assert_eq!(span_of(2), "outer.inner");
    assert_eq!(span_of(3), "outer.inner");
    assert_eq!(span_of(6), "outer");
}
