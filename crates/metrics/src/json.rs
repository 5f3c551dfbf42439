//! Minimal hand-rolled JSON encoding for run reports.
//!
//! The workspace builds fully offline against stand-in dependencies
//! (see `compat/README.md`), so there is no `serde_json`. This module
//! provides a small deterministic encoder: identical reports always
//! produce identical bytes, which is what the byte-identity tests and
//! the golden report digests rely on.

use crate::summary::RunReport;

/// Escapes a string for embedding in a JSON document (quotes included).
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON number (shortest round-trip repr;
/// non-finite values become `null`, which JSON cannot represent).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl RunReport {
    /// Encodes the complete report — every invocation record and the
    /// full waste accounting — as one line of deterministic JSON.
    ///
    /// Two reports serialize to identical bytes iff they carry identical
    /// measurements, so comparing `to_json` outputs is an exact
    /// equality check over entire runs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 96);
        out.push_str("{\"policy\":");
        out.push_str(&escape_str(&self.policy));
        out.push_str(",\"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"function\":{},\"arrival_us\":{},\"queue_us\":{},\
                 \"startup_us\":{},\"exec_us\":{},\"start_type\":{}}}",
                r.function.index(),
                r.arrival.as_micros(),
                r.queue.as_micros(),
                r.startup.as_micros(),
                r.exec.as_micros(),
                escape_str(&format!("{:?}", r.start_type)),
            ));
        }
        out.push_str("],\"waste\":{\"hit_gbs\":");
        out.push_str(&fmt_f64(self.waste.hit_total().value()));
        out.push_str(",\"miss_gbs\":");
        out.push_str(&fmt_f64(self.waste.miss_total().value()));
        out.push_str(",\"minutes\":[");
        for (i, (hit, miss)) in self.waste.per_minute().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&fmt_f64(hit.value()));
            out.push(',');
            out.push_str(&fmt_f64(miss.value()));
            out.push(']');
        }
        out.push_str("]}");
        // Streaming aggregates are emitted only when present, so exact
        // (default) reports encode to the same bytes as before.
        if let Some(s) = &self.streaming {
            let pct = |v: Option<f64>| v.map(fmt_f64).unwrap_or_else(|| "null".to_string());
            out.push_str(&format!(
                ",\"streaming\":{{\"count\":{},\"total_queue_us\":{},\
                 \"total_startup_us\":{},\"total_exec_us\":{},\"start_types\":[{}],\
                 \"startup_p50_s\":{},\"startup_p99_s\":{},\
                 \"e2e_p50_s\":{},\"e2e_p99_s\":{}}}",
                s.count,
                s.total_queue.as_micros(),
                s.total_startup.as_micros(),
                s.total_exec.as_micros(),
                s.start_type_counts
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                pct(s.startup_hist.percentile(50.0)),
                pct(s.startup_hist.percentile(99.0)),
                pct(s.e2e_hist.percentile(50.0)),
                pct(s.e2e_hist.percentile(99.0)),
            ));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{InvocationRecord, StartType};
    use crate::summary::MetricsCollector;
    use crate::waste::IdleOutcome;
    use rainbowcake_core::mem::MemMb;
    use rainbowcake_core::time::{Instant, Micros};
    use rainbowcake_core::types::FunctionId;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn floats_round_trip_or_null() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    fn sample_report() -> RunReport {
        let mut c = MetricsCollector::new();
        c.record_invocation(InvocationRecord {
            function: FunctionId::new(3),
            arrival: Instant::from_micros(1_000),
            queue: Micros::ZERO,
            startup: Micros::from_millis(12),
            exec: Micros::from_millis(900),
            start_type: StartType::SharedLang,
        });
        c.waste_mut().record_interval(
            MemMb::from_gb(1),
            Instant::ZERO,
            Instant::from_micros(30_000_000),
            IdleOutcome::Miss,
        );
        c.into_report("Demo \"quoted\"")
    }

    #[test]
    fn report_encodes_all_fields() {
        let json = sample_report().to_json();
        assert!(json.starts_with("{\"policy\":\"Demo \\\"quoted\\\"\""));
        assert!(json.contains("\"function\":3"));
        assert!(json.contains("\"startup_us\":12000"));
        assert!(json.contains("\"start_type\":\"SharedLang\""));
        assert!(json.contains("\"miss_gbs\":30"));
        assert!(json.ends_with("]}}"));
    }

    #[test]
    fn identical_reports_encode_identically() {
        assert_eq!(sample_report().to_json(), sample_report().to_json());
    }
}
