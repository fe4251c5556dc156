//! Service observability: counters, occupancy, and a fixed-bucket
//! latency histogram.
//!
//! The histogram uses power-of-two microsecond buckets (bucket `i`
//! covers `[2^i, 2^{i+1})` µs, with bucket 0 absorbing sub-µs jobs and
//! the last bucket absorbing everything past ~2147 s). Fixed buckets
//! keep recording O(1) and allocation-free on the batch hot path; the
//! price is that a reported percentile is the *upper bound* of its
//! bucket, i.e. conservative by at most 2×. That resolution is plenty
//! for the queueing and occupancy effects the scheduler exposes, where
//! the interesting differences are order-of-magnitude.

/// Number of power-of-two buckets (covers 1 µs .. ~2147 s).
const BUCKETS: usize = 32;

/// Fixed-bucket latency histogram (microsecond resolution).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one latency sample, in microseconds.
    pub fn record_us(&mut self, us: u64) {
        let idx = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// containing it, in microseconds. Returns `None` with no samples —
    /// an empty histogram has no quantiles, and folding that case into
    /// `0.0` would read as "instantaneous" in dashboards.
    pub fn quantile_us(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (p.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((1u64 << (i + 1).min(63)) as f64);
            }
        }
        Some((1u64 << 63) as f64)
    }
}

/// A point-in-time snapshot of the service's health, returned by
/// [`crate::Service::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Leaf jobs admitted but not yet running on a bank (queued in a
    /// group).
    pub queue_depth: usize,
    /// Leaf jobs currently running on a bank.
    pub in_flight: usize,
    /// Leaf jobs admitted since startup (a protocol op's multiply nodes,
    /// a wide op's residue lanes).
    pub admitted: u64,
    /// Ops turned away by the `Reject` backpressure policy, plus leaf
    /// jobs a degraded fleet refused.
    pub rejected: u64,
    /// Jobs whose tickets have been fulfilled (success or failure).
    pub completed: u64,
    /// Batches claimed by a bank (a retry's extra trip is not counted).
    pub batches: u64,
    /// Batches whose group reached the packed-lane capacity.
    pub full_batches: u64,
    /// Partial batches a free bank took before they filled (the
    /// work-conserving path).
    pub eager_batches: u64,
    /// Batches run by the thread whose leaf round opened them, rather
    /// than by another op's thread while the opener was parked.
    /// Orthogonal to fullness, so `full + eager == batches` still
    /// holds.
    pub inline_batches: u64,
    /// Mean jobs per batch — the realized packed-lane occupancy
    /// (1.0 means no packing; the `32k/n` capacity is the ceiling).
    pub mean_occupancy: f64,
    /// Corrupt products flagged by residue checking (each is either
    /// retried or surfaced as `FaultUnrecovered`, never returned).
    pub faults_detected: u64,
    /// Jobs requeued for another attempt after a detected fault.
    pub retries: u64,
    /// Jobs that succeeded on a retry attempt (detected fault, then a
    /// verified product — the recover half of recover-or-quarantine).
    pub recovered: u64,
    /// Banks removed from the fleet by the quarantine policy.
    pub quarantined_banks: usize,
    /// Banks still serving (configured fleet minus quarantined).
    pub active_workers: usize,
    /// Hot-operand transform cache lookups that found the operand's
    /// forward NTT (0 when the cache is disabled).
    pub hot_hits: u64,
    /// Hot-operand cache lookups that missed (0 when disabled).
    pub hot_misses: u64,
    /// Latency samples behind the percentiles below. When 0 the
    /// percentile fields read 0.0 — that means *no data*, not
    /// instantaneous service.
    pub latency_samples: u64,
    /// Median end-to-end job latency (submit → ticket fulfilled), µs.
    /// 0.0 when [`ServiceStats::latency_samples`] is 0.
    pub p50_us: f64,
    /// 95th-percentile end-to-end job latency, µs. 0.0 when
    /// [`ServiceStats::latency_samples`] is 0.
    pub p95_us: f64,
    /// 99th-percentile end-to-end job latency, µs. 0.0 when
    /// [`ServiceStats::latency_samples`] is 0.
    pub p99_us: f64,
    /// Wide (RNS-decomposed) jobs admitted, as
    /// [`crate::ProtocolJob::WideMul`] ops. The `wide_*` fields copy the
    /// `WideMul` entry of [`ServiceStats::protocol`].
    pub wide_submitted: u64,
    /// Wide jobs whose every residue lane landed and recombined.
    pub wide_completed: u64,
    /// Wide jobs that failed (a lane refused at admission or failed in
    /// execution).
    pub wide_failed: u64,
    /// Samples behind the wide percentiles below (one per recombined
    /// wide job).
    pub wide_latency_samples: u64,
    /// Median wide-job latency (submit → recombined product, executor
    /// queueing included), µs. 0.0 when
    /// [`ServiceStats::wide_latency_samples`] is 0.
    pub wide_p50_us: f64,
    /// 95th-percentile wide-job latency, µs. 0.0 without samples.
    pub wide_p95_us: f64,
    /// 99th-percentile wide-job latency, µs. 0.0 without samples.
    pub wide_p99_us: f64,
    /// Per-kind protocol lane counters and percentiles, one entry per
    /// [`crate::ProtocolKind`] in declaration order (kinds that never
    /// saw a submission carry all-zero counters and are omitted from
    /// the JSON form).
    pub protocol: Vec<ProtocolLaneStats>,
}

/// Counters and latency percentiles for one protocol kind served
/// through [`crate::Service::submit_protocol`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolLaneStats {
    /// The kind's stable snake_case name (e.g. `"keygen"`, `"encaps"`),
    /// also the key prefix in the JSON form (`proto_<kind>_*`).
    pub kind: &'static str,
    /// Protocol ops of this kind accepted by `submit_protocol`.
    pub submitted: u64,
    /// Ops whose ticket resolved successfully.
    pub completed: u64,
    /// Ops whose ticket resolved with an error.
    pub failed: u64,
    /// Samples behind the percentiles below (one per completed op).
    pub latency_samples: u64,
    /// Median end-to-end op latency (submit → ticket fulfilled), µs.
    pub p50_us: f64,
    /// 95th-percentile end-to-end op latency, µs.
    pub p95_us: f64,
    /// 99th-percentile end-to-end op latency, µs.
    pub p99_us: f64,
}

impl ProtocolLaneStats {
    /// An all-zero lane for `kind` (nothing submitted yet).
    pub fn empty(kind: &'static str) -> ProtocolLaneStats {
        ProtocolLaneStats {
            kind,
            submitted: 0,
            completed: 0,
            failed: 0,
            latency_samples: 0,
            p50_us: 0.0,
            p95_us: 0.0,
            p99_us: 0.0,
        }
    }
}

/// Scans `text` for `"key": <number>` and returns the raw number
/// token. Shared by [`ServiceStats::from_json`]; first occurrence
/// wins, so embedders must not reuse these field names earlier in the
/// same document (the net layer's `Stats` verb keeps its own counters
/// under distinct keys for exactly this reason).
fn json_number<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)?;
    let rest = text[at + needle.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

impl ServiceStats {
    /// Hot-operand cache hit rate (0.0 with no lookups).
    pub fn hot_hit_rate(&self) -> f64 {
        let lookups = self.hot_hits + self.hot_misses;
        if lookups == 0 {
            0.0
        } else {
            self.hot_hits as f64 / lookups as f64
        }
    }

    /// Checks the counter identities every snapshot satisfies, since
    /// the scheduler updates each group of them in one critical
    /// section: every admitted leaf job is completed, in flight or
    /// queued; every batch is either full or eager; and no protocol lane
    /// has finished more ops than were submitted.
    ///
    /// # Errors
    ///
    /// The first identity that does not hold, with its values.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check(false)
    }

    /// [`ServiceStats::check_invariants`] plus what holds once
    /// [`crate::Service::shutdown`] has drained: no leaf job queued or
    /// in flight, and every submitted op completed or failed.
    ///
    /// # Errors
    ///
    /// The first identity that does not hold, with its values.
    pub fn check_drained(&self) -> Result<(), String> {
        self.check(true)
    }

    fn check(&self, drained: bool) -> Result<(), String> {
        let unfinished = self.in_flight as u64 + self.queue_depth as u64;
        if self.admitted != self.completed + unfinished || (drained && unfinished > 0) {
            return Err(format!(
                "admitted {}: completed {} + in flight {} + queued {}",
                self.admitted, self.completed, self.in_flight, self.queue_depth
            ));
        }
        if self.full_batches + self.eager_batches != self.batches
            || self.inline_batches > self.batches
        {
            return Err(format!(
                "batches {}: {} full + {} eager, {} inline",
                self.batches, self.full_batches, self.eager_batches, self.inline_batches
            ));
        }
        for lane in &self.protocol {
            let finished = lane.completed + lane.failed;
            if lane.submitted < finished || (drained && lane.submitted != finished) {
                return Err(format!(
                    "proto {}: submitted {}, completed {} + failed {}",
                    lane.kind, lane.submitted, lane.completed, lane.failed
                ));
            }
        }
        Ok(())
    }

    /// Serializes the snapshot as one flat JSON object — the single
    /// source of truth for every emitter (`serve-loadgen --json`,
    /// `fault-campaign --json`, the net layer's `Stats` verb) instead
    /// of three hand-formatted copies. Dependency-free: the workspace
    /// vendors no JSON crate. Integers print exactly and floats use
    /// Rust's shortest-round-trip `Display`, so
    /// [`ServiceStats::from_json`] reconstructs a bit-identical value.
    ///
    /// Empty sections are *omitted consistently*: the narrow percentile
    /// triple disappears when [`ServiceStats::latency_samples`] is 0,
    /// the whole wide lane when [`ServiceStats::wide_submitted`] is 0
    /// (its percentiles additionally require wide samples), and a
    /// protocol kind's `proto_<kind>_*` block when that kind was never
    /// submitted. [`ServiceStats::from_json`] defaults every omitted
    /// section to zeros, so the round trip is still bit-exact.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"queue_depth\": {}, \"in_flight\": {}, \"admitted\": {}, ",
                "\"rejected\": {}, \"completed\": {}, \"batches\": {}, ",
                "\"full_batches\": {}, \"eager_batches\": {}, ",
                "\"inline_batches\": {}, \"mean_occupancy\": {}, \"faults_detected\": {}, \"retries\": {}, ",
                "\"recovered\": {}, \"quarantined_banks\": {}, \"active_workers\": {}, ",
                "\"hot_hits\": {}, \"hot_misses\": {}, \"latency_samples\": {}"
            ),
            self.queue_depth,
            self.in_flight,
            self.admitted,
            self.rejected,
            self.completed,
            self.batches,
            self.full_batches,
            self.eager_batches,
            self.inline_batches,
            self.mean_occupancy,
            self.faults_detected,
            self.retries,
            self.recovered,
            self.quarantined_banks,
            self.active_workers,
            self.hot_hits,
            self.hot_misses,
            self.latency_samples,
        );
        if self.latency_samples > 0 {
            out.push_str(&format!(
                ", \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}",
                self.p50_us, self.p95_us, self.p99_us
            ));
        }
        if self.wide_submitted > 0 {
            out.push_str(&format!(
                concat!(
                    ", \"wide_submitted\": {}, \"wide_completed\": {}, ",
                    "\"wide_failed\": {}, \"wide_latency_samples\": {}"
                ),
                self.wide_submitted,
                self.wide_completed,
                self.wide_failed,
                self.wide_latency_samples,
            ));
            if self.wide_latency_samples > 0 {
                out.push_str(&format!(
                    ", \"wide_p50_us\": {}, \"wide_p95_us\": {}, \"wide_p99_us\": {}",
                    self.wide_p50_us, self.wide_p95_us, self.wide_p99_us
                ));
            }
        }
        for lane in &self.protocol {
            if lane.submitted == 0 {
                continue;
            }
            let k = lane.kind;
            out.push_str(&format!(
                ", \"proto_{0}_submitted\": {1}, \"proto_{0}_completed\": {2}, \"proto_{0}_failed\": {3}, \"proto_{0}_latency_samples\": {4}",
                k, lane.submitted, lane.completed, lane.failed, lane.latency_samples
            ));
            if lane.latency_samples > 0 {
                out.push_str(&format!(
                    ", \"proto_{0}_p50_us\": {1}, \"proto_{0}_p95_us\": {2}, \"proto_{0}_p99_us\": {3}",
                    k, lane.p50_us, lane.p95_us, lane.p99_us
                ));
            }
        }
        out.push('}');
        out
    }

    /// Parses a snapshot out of a [`to_json`](ServiceStats::to_json)
    /// document (or any JSON text embedding one, provided no earlier
    /// sibling reuses these field names). The core counters are
    /// required — a truncated or foreign document never yields a
    /// half-filled snapshot — while the omit-when-empty sections
    /// (narrow percentiles, the wide lane, per-kind protocol blocks)
    /// default to zeros when absent.
    pub fn from_json(text: &str) -> Option<ServiceStats> {
        fn u64_field(text: &str, key: &str) -> Option<u64> {
            json_number(text, key)?.parse().ok()
        }
        fn usize_field(text: &str, key: &str) -> Option<usize> {
            json_number(text, key)?.parse().ok()
        }
        fn f64_field(text: &str, key: &str) -> Option<f64> {
            json_number(text, key)?.parse().ok()
        }
        let protocol = crate::graph::ProtocolKind::ALL
            .iter()
            .map(|kind| {
                let k = kind.as_str();
                let mut lane = ProtocolLaneStats::empty(k);
                if let Some(submitted) = u64_field(text, &format!("proto_{k}_submitted")) {
                    lane.submitted = submitted;
                    lane.completed = u64_field(text, &format!("proto_{k}_completed")).unwrap_or(0);
                    lane.failed = u64_field(text, &format!("proto_{k}_failed")).unwrap_or(0);
                    lane.latency_samples =
                        u64_field(text, &format!("proto_{k}_latency_samples")).unwrap_or(0);
                    lane.p50_us = f64_field(text, &format!("proto_{k}_p50_us")).unwrap_or(0.0);
                    lane.p95_us = f64_field(text, &format!("proto_{k}_p95_us")).unwrap_or(0.0);
                    lane.p99_us = f64_field(text, &format!("proto_{k}_p99_us")).unwrap_or(0.0);
                }
                lane
            })
            .collect();
        let latency_samples = u64_field(text, "latency_samples")?;
        Some(ServiceStats {
            queue_depth: usize_field(text, "queue_depth")?,
            in_flight: usize_field(text, "in_flight")?,
            admitted: u64_field(text, "admitted")?,
            rejected: u64_field(text, "rejected")?,
            completed: u64_field(text, "completed")?,
            batches: u64_field(text, "batches")?,
            full_batches: u64_field(text, "full_batches")?,
            eager_batches: u64_field(text, "eager_batches")?,
            inline_batches: u64_field(text, "inline_batches")?,
            mean_occupancy: f64_field(text, "mean_occupancy")?,
            faults_detected: u64_field(text, "faults_detected")?,
            retries: u64_field(text, "retries")?,
            recovered: u64_field(text, "recovered")?,
            quarantined_banks: usize_field(text, "quarantined_banks")?,
            active_workers: usize_field(text, "active_workers")?,
            hot_hits: u64_field(text, "hot_hits")?,
            hot_misses: u64_field(text, "hot_misses")?,
            latency_samples,
            p50_us: f64_field(text, "p50_us").unwrap_or(0.0),
            p95_us: f64_field(text, "p95_us").unwrap_or(0.0),
            p99_us: f64_field(text, "p99_us").unwrap_or(0.0),
            wide_submitted: u64_field(text, "wide_submitted").unwrap_or(0),
            wide_completed: u64_field(text, "wide_completed").unwrap_or(0),
            wide_failed: u64_field(text, "wide_failed").unwrap_or(0),
            wide_latency_samples: u64_field(text, "wide_latency_samples").unwrap_or(0),
            wide_p50_us: f64_field(text, "wide_p50_us").unwrap_or(0.0),
            wide_p95_us: f64_field(text, "wide_p95_us").unwrap_or(0.0),
            wide_p99_us: f64_field(text, "wide_p99_us").unwrap_or(0.0),
            protocol,
        })
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "queue depth {} (+{} in flight) | admitted {} rejected {} completed {}",
            self.queue_depth, self.in_flight, self.admitted, self.rejected, self.completed
        )?;
        writeln!(
            f,
            "batches {} ({} full, {} eager; {} run inline) | mean occupancy {:.2} jobs/batch",
            self.batches,
            self.full_batches,
            self.eager_batches,
            self.inline_batches,
            self.mean_occupancy
        )?;
        writeln!(
            f,
            "faults detected {} | retries {} recovered {} | quarantined {} ({} active workers)",
            self.faults_detected,
            self.retries,
            self.recovered,
            self.quarantined_banks,
            self.active_workers
        )?;
        if self.hot_hits + self.hot_misses > 0 {
            writeln!(
                f,
                "hot cache: {} hits / {} misses ({:.1}% hit rate)",
                self.hot_hits,
                self.hot_misses,
                100.0 * self.hot_hits as f64 / (self.hot_hits + self.hot_misses) as f64
            )?;
        }
        // The wide lane prints once, as "proto wide_mul".
        for lane in &self.protocol {
            if lane.submitted == 0 {
                continue;
            }
            write!(
                f,
                "proto {}: {} submitted, {} completed, {} failed",
                lane.kind, lane.submitted, lane.completed, lane.failed
            )?;
            if lane.latency_samples > 0 {
                write!(
                    f,
                    " | p50 ≤ {:.0} µs, p95 ≤ {:.0} µs, p99 ≤ {:.0} µs",
                    lane.p50_us, lane.p95_us, lane.p99_us
                )?;
            }
            writeln!(f)?;
        }
        if self.latency_samples == 0 {
            write!(f, "latency: no samples")
        } else {
            write!(
                f,
                "latency p50 ≤ {:.0} µs, p95 ≤ {:.0} µs, p99 ≤ {:.0} µs ({} samples)",
                self.p50_us, self.p95_us, self.p99_us, self.latency_samples
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.quantile_us(1.0), None);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record_us(3); // bucket [2, 4)
        }
        h.record_us(1000); // bucket [512, 1024)
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.5), Some(4.0));
        assert_eq!(h.quantile_us(0.95), Some(4.0));
        assert_eq!(h.quantile_us(1.0), Some(1024.0));
    }

    #[test]
    fn sub_microsecond_and_huge_samples_clamp() {
        let mut h = LatencyHistogram::default();
        h.record_us(0);
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_us(0.0), Some(2.0));
        assert_eq!(h.quantile_us(1.0), Some((1u64 << 32) as f64));
    }

    fn empty_protocol() -> Vec<ProtocolLaneStats> {
        crate::graph::ProtocolKind::ALL
            .iter()
            .map(|k| ProtocolLaneStats::empty(k.as_str()))
            .collect()
    }

    fn fixture_stats() -> ServiceStats {
        let mut protocol = empty_protocol();
        protocol[2] = ProtocolLaneStats {
            kind: protocol[2].kind,
            submitted: 12,
            completed: 11,
            failed: 1,
            latency_samples: 11,
            p50_us: 2048.0,
            p95_us: 8192.0,
            p99_us: 32768.0,
        };
        ServiceStats {
            queue_depth: 3,
            in_flight: 2,
            admitted: 1000,
            rejected: 17,
            completed: 995,
            batches: 120,
            full_batches: 80,
            eager_batches: 40,
            inline_batches: 25,
            mean_occupancy: 1.0 / 3.0, // not exactly representable in decimal
            faults_detected: 5,
            retries: 4,
            recovered: 3,
            quarantined_banks: 1,
            active_workers: 7,
            hot_hits: 640,
            hot_misses: 16,
            latency_samples: 995,
            p50_us: 512.0,
            p95_us: 2048.0,
            p99_us: 8192.0,
            wide_submitted: 40,
            wide_completed: 38,
            wide_failed: 2,
            wide_latency_samples: 38,
            wide_p50_us: 1024.0,
            wide_p95_us: 4096.0,
            wide_p99_us: 16384.0,
            protocol,
        }
    }

    #[test]
    fn invariants_hold_on_a_balanced_snapshot_and_name_a_broken_one() {
        let stats = fixture_stats();
        assert_eq!(stats.check_invariants(), Ok(()));
        // Three jobs queued, two in flight: not a drained snapshot.
        assert!(stats.check_drained().unwrap_err().contains("queued 3"));
        let mut lost = stats.clone();
        lost.completed -= 1;
        assert!(lost.check_invariants().unwrap_err().contains("admitted"));
        let mut uncaused = stats.clone();
        uncaused.eager_batches += 1;
        assert!(uncaused.check_invariants().unwrap_err().contains("batches"));
        let mut early = stats.clone();
        early.protocol[2].completed += 1;
        assert!(early.check_invariants().unwrap_err().contains("submitted"));
        let mut drained = stats;
        drained.completed += 5;
        drained.queue_depth = 0;
        drained.in_flight = 0;
        assert_eq!(drained.check_drained(), Ok(()));
        // An op still unfinished after the drain.
        drained.protocol[2].submitted += 1;
        assert_eq!(drained.check_invariants(), Ok(()));
        assert!(drained
            .check_drained()
            .unwrap_err()
            .contains("submitted 13"));
    }

    #[test]
    fn display_prints_the_wide_lane_once() {
        let mut stats = fixture_stats();
        let wide = crate::graph::ProtocolKind::WideMul as usize;
        stats.protocol[wide] = ProtocolLaneStats {
            kind: stats.protocol[wide].kind,
            submitted: stats.wide_submitted,
            completed: stats.wide_completed,
            failed: stats.wide_failed,
            latency_samples: stats.wide_latency_samples,
            p50_us: stats.wide_p50_us,
            p95_us: stats.wide_p95_us,
            p99_us: stats.wide_p99_us,
        };
        let text = stats.to_string();
        assert_eq!(
            text.matches("40 submitted, 38 completed").count(),
            1,
            "{text}"
        );
        assert!(text.contains("proto wide_mul: 40 submitted"), "{text}");
    }

    #[test]
    fn stats_json_round_trips_bit_exact() {
        let stats = fixture_stats();
        let json = stats.to_json();
        let back = ServiceStats::from_json(&json).expect("own output parses");
        assert_eq!(back, stats, "shortest-round-trip floats must survive");
        // Embedded in a larger document (the Stats verb shape) it still
        // parses, as long as no earlier sibling reuses the field names.
        let wrapped = format!("{{\"proto\": 1, \"service\": {json}}}");
        assert_eq!(ServiceStats::from_json(&wrapped), Some(stats));
    }

    #[test]
    fn stats_json_omits_empty_sections_consistently() {
        // Nothing submitted on any lane: the narrow percentile triple,
        // the wide lane, and every protocol block must all be absent —
        // and the document must still round-trip bit-exactly.
        let mut stats = fixture_stats();
        stats.latency_samples = 0;
        stats.p50_us = 0.0;
        stats.p95_us = 0.0;
        stats.p99_us = 0.0;
        stats.wide_submitted = 0;
        stats.wide_completed = 0;
        stats.wide_failed = 0;
        stats.wide_latency_samples = 0;
        stats.wide_p50_us = 0.0;
        stats.wide_p95_us = 0.0;
        stats.wide_p99_us = 0.0;
        stats.protocol = empty_protocol();
        let json = stats.to_json();
        assert!(
            !json.contains("p50_us"),
            "empty narrow lane must be omitted"
        );
        assert!(!json.contains("wide_"), "empty wide lane must be omitted");
        assert!(
            !json.contains("proto_"),
            "empty protocol lanes must be omitted"
        );
        assert_eq!(ServiceStats::from_json(&json), Some(stats));
        // A populated wide lane without samples keeps its counters but
        // omits its percentile triple.
        let mut partial = fixture_stats();
        partial.wide_latency_samples = 0;
        partial.wide_p50_us = 0.0;
        partial.wide_p95_us = 0.0;
        partial.wide_p99_us = 0.0;
        let json = partial.to_json();
        assert!(json.contains("wide_submitted"));
        assert!(!json.contains("wide_p50_us"));
        assert_eq!(ServiceStats::from_json(&json), Some(partial));
    }

    #[test]
    fn stats_from_json_rejects_truncation_and_noise() {
        let json = fixture_stats().to_json();
        // Truncation that loses a core counter must yield None, never a
        // half-filled snapshot.
        assert_eq!(ServiceStats::from_json(&json[..json.len() / 4]), None);
        assert_eq!(ServiceStats::from_json("{}"), None);
        assert_eq!(ServiceStats::from_json("not json at all"), None);
        let mangled = json.replace("\"admitted\": 1000", "\"admitted\": oops");
        assert_eq!(ServiceStats::from_json(&mangled), None);
    }

    #[test]
    fn quantiles_monotone_in_p() {
        let mut h = LatencyHistogram::default();
        for us in [1u64, 5, 9, 33, 70, 200, 900, 5000, 40000] {
            h.record_us(us);
        }
        let mut last = 0.0;
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let q = h.quantile_us(p).expect("non-empty");
            assert!(q >= last, "p = {p}");
            last = q;
        }
    }
}
