//! Property tests for the wire protocol and the length-capped framing
//! layer: request/response round-trips, and "malformed input never panics,
//! never over-buffers" fuzzing of [`LineReader`].

use cote_net::{parse_class, parse_request};
use cote_net::{FrameError, LineReader, OutcomeTarget, WireRequest, WireResponse, MAX_LINE_BYTES};
use cote_service::QueryClass;
use proptest::prelude::*;

fn class_from(tag: u8) -> Option<QueryClass> {
    match tag % 4 {
        0 => None,
        1 => Some(QueryClass::Interactive),
        2 => Some(QueryClass::Reporting),
        _ => Some(QueryClass::Batch),
    }
}

fn request_from(verb: u8, index: usize, class_tag: u8, fp: u64, seconds: f64) -> WireRequest {
    match verb % 6 {
        0 => WireRequest::Ping,
        1 => WireRequest::Metrics,
        2 => WireRequest::Estimate {
            index,
            class: class_from(class_tag),
        },
        3 => WireRequest::Admit {
            index,
            class: class_from(class_tag),
        },
        4 => WireRequest::Outcome {
            target: OutcomeTarget::Index(index),
            seconds,
        },
        _ => WireRequest::Outcome {
            target: OutcomeTarget::Fingerprint(fp),
            seconds,
        },
    }
}

/// Printable-ASCII strings (sanitize() is the identity on these, so
/// response round-trips are exact).
fn printable(bytes: Vec<u16>) -> String {
    bytes.into_iter().map(|b| (b as u8) as char).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_render_parse_round_trips(
        verb in 0u8..6,
        index in 1usize..100_000,
        class_tag in 0u8..8,
        fp in any::<u64>(),
        mantissa in 1.0f64..10.0,
        exponent in 0u8..60,
    ) {
        // Finite positive seconds across 60 decades: f64 Display must
        // render each so it parses back to the same bits.
        let seconds = mantissa * 10f64.powi(i32::from(exponent) - 30);
        let req = request_from(verb, index, class_tag, fp, seconds);
        let line = req.render();
        prop_assert!(!line.contains('\n'), "frames are one line: {line:?}");
        prop_assert_eq!(parse_request(&line).unwrap(), req);
        // Verbs are case-insensitive.
        prop_assert_eq!(parse_request(&line.to_ascii_lowercase()).unwrap(), req);
    }

    #[test]
    fn response_render_parse_round_trips(
        status in 0u8..3,
        payload in proptest::collection::vec(32u16..127, 0..60).prop_map(printable),
    ) {
        let resp = match status {
            0 => WireResponse::Ok(payload),
            1 => WireResponse::Busy(payload),
            _ => WireResponse::Err(payload),
        };
        let line = resp.render();
        prop_assert!(line.ends_with('\n'), "{line:?}");
        prop_assert!(!line[..line.len() - 1].contains('\n'), "{line:?}");
        prop_assert_eq!(WireResponse::parse(line.trim_end_matches('\n')).unwrap(), resp);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_lines(
        line in proptest::collection::vec(32u16..127, 0..80).prop_map(printable),
    ) {
        // Any outcome is fine; panicking or looping is not.
        let _ = parse_request(&line);
        let _ = WireResponse::parse(&line);
        let _ = parse_class(&line);
    }

    #[test]
    fn line_reader_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(0u16..256, 0..512).prop_map(|v| {
            v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()
        }),
        cap in 1usize..64,
    ) {
        // Feed raw bytes through the framing layer: every line either parses,
        // or fails with a classified error; memory never exceeds the cap plus
        // one read chunk; the reader always terminates.
        let mut r = LineReader::new(bytes.as_slice(), cap);
        for _ in 0..=bytes.len() {
            match r.read_line() {
                Ok(Some(line)) => prop_assert!(line.len() <= cap),
                Ok(None) => break, // clean EOF
                Err(FrameError::Oversize { limit }) => {
                    prop_assert_eq!(limit, cap);
                    // Resync like the stdin loop does; EOF mid-skip ends it.
                    if !r.skip_line().unwrap() {
                        break;
                    }
                }
                Err(FrameError::InvalidUtf8) => {} // line consumed; keep going
                Err(FrameError::Truncated) => break,
                Err(FrameError::Io(e)) => prop_assert!(false, "io on &[u8]: {e}"),
            }
        }
        prop_assert!(r.bytes_read() <= bytes.len() as u64);
    }
}

#[test]
fn outcome_takes_an_index_or_a_statement_name() {
    assert_eq!(
        parse_request("OUTCOME 3 0.25").unwrap(),
        WireRequest::Outcome {
            target: OutcomeTarget::Index(3),
            seconds: 0.25
        }
    );
    let req = parse_request("outcome SQL-00000000DEADBEEF 1e-3").unwrap();
    assert_eq!(
        req,
        WireRequest::Outcome {
            target: OutcomeTarget::Fingerprint(0xdead_beef),
            seconds: 0.001
        }
    );
    assert_eq!(req.render(), "OUTCOME sql-00000000deadbeef 0.001");
    for bad in [
        "OUTCOME",
        "OUTCOME 1",
        "OUTCOME 0 0.5",
        "OUTCOME x 0.5",
        "OUTCOME 1 0",
        "OUTCOME 1 -2",
        "OUTCOME 1 NaN",
        "OUTCOME 1 inf",
        "OUTCOME 1 fast",
        "OUTCOME 1 0.5 extra",
        "OUTCOME sql- 0.5",
        "OUTCOME sql-123 0.5",
        "OUTCOME sql-00000000000000000 0.5",
        "OUTCOME sql-+000000000000000 0.5",
        "OUTCOME sql-000000000000000g 0.5",
    ] {
        assert!(parse_request(bad).is_err(), "{bad:?} should not parse");
    }
}

#[test]
fn pipelined_frames_split_cleanly() {
    // One buffer, many frames — the reader must hand them back one by one
    // (this is what lets clients pipeline requests).
    let mut input = Vec::new();
    let frames = ["PING", "ESTIMATE 3", "ADMIT 2 batch", "METRICS"];
    for f in &frames {
        input.extend_from_slice(f.as_bytes());
        input.push(b'\n');
    }
    let mut r = LineReader::new(input.as_slice(), MAX_LINE_BYTES);
    for f in &frames {
        let line = r.read_line().unwrap().unwrap();
        assert_eq!(&line, f);
        assert!(parse_request(&line).is_ok(), "{line}");
    }
    assert!(r.read_line().unwrap().is_none());
}

#[test]
fn truncated_oversize_and_invalid_utf8_classify() {
    // The three malformed shapes the server must answer (or close on)
    // without hanging or allocating unboundedly.
    let mut r = LineReader::new(&b"ESTIMATE 3"[..], 64); // no terminator
    assert!(matches!(r.read_line(), Err(FrameError::Truncated)));

    let long = vec![b'a'; 4096];
    let mut r = LineReader::new(long.as_slice(), 64);
    assert!(matches!(
        r.read_line(),
        Err(FrameError::Oversize { limit: 64 })
    ));

    let mut r = LineReader::new(&[b'P', 0xC3, 0x28, b'\n'][..], 64);
    assert!(matches!(r.read_line(), Err(FrameError::InvalidUtf8)));
}
