//! The result line never carries a value that is not a number: a NaN or
//! infinite metric is an error, not a JSON line.

use perfbench::report::{Outcome, END_TO_END};

#[test]
fn a_non_finite_metric_is_an_error() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut out = Outcome::default();
        out.put("throughput_per_s", bad, 1);
        out.put("latency_p50_us", 12.5, 1);
        let err = out.print("test", &END_TO_END).expect_err("a non-finite metric must fail");
        assert!(err.contains("throughput_per_s"), "{err}");
        assert!(!err.contains("latency_p50_us"), "{err}");
    }
}

#[test]
fn finite_metrics_print() {
    let mut out = Outcome::default();
    out.put("throughput_per_s", 1.5e6, 3);
    assert!(out.print("test", &END_TO_END).is_ok());
}
