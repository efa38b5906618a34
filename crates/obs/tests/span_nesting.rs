//! Satellite: parent/child span durations are consistent — every child fits
//! inside its parent, disjoint siblings sum to no more than the parent, and
//! self time is exactly total minus children.

use cote_obs::{set_tracing, take_events, Span};
use std::time::Duration;

fn busy(d: Duration) {
    let sw = std::time::Instant::now();
    while sw.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[test]
fn children_fit_inside_the_parent() {
    set_tracing(true);
    let parent = Span::enter("parent");
    busy(Duration::from_millis(1));
    let a = Span::enter("a").close();
    busy(Duration::from_millis(1));
    let b = {
        let mut s = Span::enter("b");
        s.record("work", 1);
        busy(Duration::from_millis(2));
        s.close()
    };
    let p = parent.close();
    set_tracing(false);

    // child ≤ parent, for each child and for the disjoint pair together.
    assert!(a.total <= p.total);
    assert!(b.total <= p.total);
    assert!(a.total + b.total <= p.total, "{a:?} + {b:?} > {p:?}");
    // self = total − children, exactly (both sides from the same clock).
    assert_eq!(p.self_time, p.total - a.total - b.total);
    // The parent did ≥ 2ms of its own work between the children.
    assert!(p.self_time >= Duration::from_millis(2));

    let events = take_events();
    assert_eq!(events.len(), 3, "a, b, parent in close order");
    let (ea, eb, ep) = (&events[0], &events[1], &events[2]);
    assert_eq!((ea.phase.as_str(), ea.depth), ("a", 1));
    assert_eq!((eb.phase.as_str(), eb.depth), ("b", 1));
    assert_eq!((ep.phase.as_str(), ep.depth), ("parent", 0));
    // Sibling windows are disjoint and inside the parent's window.
    assert!(ep.start_ns <= ea.start_ns);
    assert!(ea.start_ns + ea.dur_ns <= eb.start_ns);
    assert!(eb.start_ns + eb.dur_ns <= ep.start_ns + ep.dur_ns);
    assert_eq!(eb.fields, vec![("work".to_string(), 1)]);
}

#[test]
fn deep_nesting_keeps_self_times_disjoint() {
    let l0 = Span::enter("l0");
    let l1 = Span::enter("l1");
    let l2 = Span::enter("l2");
    busy(Duration::from_millis(1));
    let t2 = l2.close();
    let t1 = l1.close();
    let t0 = l0.close();
    assert!(t2.total <= t1.total && t1.total <= t0.total);
    // Each level's self time excludes everything below it, so the stack of
    // self times reassembles the root total exactly.
    assert_eq!(t0.self_time + t1.self_time + t2.self_time, t0.total);
}
