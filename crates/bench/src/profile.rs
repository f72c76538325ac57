//! Parsing and regression-diffing of `BENCH_*.json` phase profiles.
//!
//! `exp_all` ends every full benchmark run by writing the per-phase
//! wall-clock breakdown ([`crate::phase_profile_json`]) to `BENCH_obs.json`.
//! This module reads two such profiles back and compares them phase by
//! phase, so `bench-diff` (and `scripts/check.sh`) can turn an accidental
//! slowdown into a failing exit code instead of a silently drifting number.
//!
//! The parser is deliberately small: it understands exactly the document
//! shape `phase_profile_json` emits (flat keys, one `phases` array of flat
//! objects) rather than arbitrary JSON — the workspace is dependency-free
//! and the format is ours.
//!
//! Comparison semantics: per-phase **mean** milliseconds, because phase
//! *counts* legitimately differ between runs (a lifetime ends when aging
//! says so), while the per-invocation cost of `train`/`map`/`tune`/
//! `evaluate` is what regresses when someone pessimizes a kernel. Phases
//! faster than [`NOISE_FLOOR_MS`] are ignored — they are timer noise.

use std::fmt;
use std::path::Path;

/// One phase's aggregated timings, as read from a profile document.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase (span) name: `train`, `map`, `tune`, `evaluate`, ...
    pub phase: String,
    /// Number of spans aggregated.
    pub count: u64,
    /// Total wall-clock milliseconds.
    pub total_ms: f64,
    /// Mean milliseconds per span.
    pub mean_ms: f64,
    /// Longest single span, milliseconds.
    pub max_ms: f64,
}

/// A parsed `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchProfile {
    /// The benchmark label.
    pub benchmark: String,
    /// Per-phase stats, in pipeline order.
    pub phases: Vec<PhaseStat>,
    /// Determinism-sensitive scalars from the optional `"extras"` object
    /// ([`crate::phase_profile_json_with`]): attribution totals, histogram
    /// counts. Empty for documents without one.
    pub extras: Vec<(String, f64)>,
    /// Grand total of instrumented milliseconds.
    pub total_instrumented_ms: f64,
}

impl BenchProfile {
    /// Parses a `phase_profile_json` document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse(json: &str) -> Result<BenchProfile, String> {
        let benchmark = string_field(json, "benchmark")?;
        let phases_src = array_field(json, "phases")?;
        let mut phases = Vec::new();
        for object in phases_src.split('}') {
            if !object.contains("\"phase\"") {
                continue;
            }
            phases.push(PhaseStat {
                phase: string_field(object, "phase")?,
                count: number_field(object, "count")? as u64,
                total_ms: number_field(object, "total_ms")?,
                mean_ms: number_field(object, "mean_ms")?,
                max_ms: number_field(object, "max_ms")?,
            });
        }
        if phases.is_empty() {
            return Err("profile has no phases".into());
        }
        let extras = extras_field(json)?;
        let total_instrumented_ms = number_field(json, "total_instrumented_ms")?;
        Ok(BenchProfile { benchmark, phases, extras, total_instrumented_ms })
    }

    /// Reads and parses a profile file.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse failures with the path in the message.
    pub fn load(path: &Path) -> Result<BenchProfile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        BenchProfile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The named phase, if present.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.phase == name)
    }

    /// The named extra scalar, if present.
    pub fn extra(&self, key: &str) -> Option<f64> {
        self.extras.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Phases whose mean is below this many milliseconds in both profiles are
/// skipped by [`compare`] (timer noise); a smaller baseline mean is raised
/// to it before the ratio is formed.
pub const NOISE_FLOOR_MS: f64 = 0.05;

/// Tolerances for [`compare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Maximum allowed candidate/baseline mean-time ratio per phase.
    pub tolerance: f64,
    /// Maximum allowed relative difference for `extras` scalars. These are
    /// deterministic quantities (histogram counts, attribution totals),
    /// not timings, so the default is tight — it only absorbs the decimal
    /// rendering round-trip.
    pub extra_rel_tolerance: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        // 1.5x absorbs scheduler jitter on one machine while still
        // catching a genuine 2x pessimization.
        DiffConfig { tolerance: 1.5, extra_rel_tolerance: 1e-3 }
    }
}

/// One detected slowdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The phase that slowed down.
    pub phase: String,
    /// Baseline mean milliseconds.
    pub baseline_ms: f64,
    /// Candidate mean milliseconds.
    pub candidate_ms: f64,
    /// candidate / baseline.
    pub ratio: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: mean {:.3} ms -> {:.3} ms ({:.2}x)",
            self.phase, self.baseline_ms, self.candidate_ms, self.ratio
        )
    }
}

/// Compares two profiles phase by phase; returns every phase whose mean
/// time regressed beyond `config.tolerance`. A phase present in only one
/// profile is not a regression (pipelines gain and lose phases), and
/// phases under [`NOISE_FLOOR_MS`] in both profiles are ignored.
///
/// `extras` scalars are held to `config.extra_rel_tolerance` instead:
/// they are deterministic, so an extra that drifts — or disappears from
/// the candidate — is flagged (reported with an `extra:` phase prefix).
pub fn compare(
    baseline: &BenchProfile,
    candidate: &BenchProfile,
    config: &DiffConfig,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for base in &baseline.phases {
        let Some(cand) = candidate.phase(&base.phase) else { continue };
        if base.mean_ms < NOISE_FLOOR_MS && cand.mean_ms < NOISE_FLOOR_MS {
            continue;
        }
        // A baseline mean at/below the floor cannot form a meaningful
        // ratio; require the candidate to clear the floor on its own.
        let effective_base = base.mean_ms.max(NOISE_FLOOR_MS);
        let ratio = cand.mean_ms / effective_base;
        if ratio > config.tolerance {
            regressions.push(Regression {
                phase: base.phase.clone(),
                baseline_ms: base.mean_ms,
                candidate_ms: cand.mean_ms,
                ratio,
            });
        }
    }
    for (key, base_value) in &baseline.extras {
        let cand_value = candidate.extra(key);
        let rel = match cand_value {
            // A vanished extra is always a regression — the candidate
            // stopped reporting a quantity the baseline pins down.
            None => f64::INFINITY,
            Some(v) => {
                let scale = base_value.abs().max(v.abs());
                if scale == 0.0 {
                    0.0
                } else {
                    (v - base_value).abs() / scale
                }
            }
        };
        if rel > config.extra_rel_tolerance {
            regressions.push(Regression {
                phase: format!("extra:{key}"),
                baseline_ms: *base_value,
                candidate_ms: cand_value.unwrap_or(f64::NAN),
                ratio: if *base_value == 0.0 {
                    f64::INFINITY
                } else {
                    cand_value.unwrap_or(f64::NAN) / base_value
                },
            });
        }
    }
    regressions
}

/// Extracts `"key": "value"` from a flat JSON fragment.
fn string_field(src: &str, key: &str) -> Result<String, String> {
    let rest = after_key(src, key)?;
    let rest = rest.strip_prefix('"').ok_or_else(|| format!("`{key}` is not a string"))?;
    let end = rest.find('"').ok_or_else(|| format!("`{key}` string is unterminated"))?;
    Ok(rest[..end].to_string())
}

/// Extracts `"key": <number>` from a flat JSON fragment.
fn number_field(src: &str, key: &str) -> Result<f64, String> {
    let rest = after_key(src, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].trim().parse().map_err(|_| format!("`{key}` is not a number"))
}

/// Extracts the text between `"key": [` and its closing `]`.
fn array_field<'a>(src: &'a str, key: &str) -> Result<&'a str, String> {
    let rest = after_key(src, key)?;
    let rest = rest.strip_prefix('[').ok_or_else(|| format!("`{key}` is not an array"))?;
    let end = rest.find(']').ok_or_else(|| format!("`{key}` array is unterminated"))?;
    Ok(&rest[..end])
}

/// Parses the optional flat `"extras": { "key": <number>, ... }` object.
/// A document without one yields an empty list.
fn extras_field(src: &str) -> Result<Vec<(String, f64)>, String> {
    let Ok(rest) = after_key(src, "extras") else { return Ok(Vec::new()) };
    let rest = rest.strip_prefix('{').ok_or("`extras` is not an object")?;
    let end = rest.find('}').ok_or("`extras` object is unterminated")?;
    let mut extras = Vec::new();
    for pair in rest[..end].split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair.split_once(':').ok_or(format!("bad extras pair `{pair}`"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("extras value for `{key}` is not a number"))?;
        extras.push((key, value));
    }
    Ok(extras)
}

fn after_key<'a>(src: &'a str, key: &str) -> Result<&'a str, String> {
    let marker = format!("\"{key}\"");
    let at = src.find(&marker).ok_or_else(|| format!("missing field `{key}`"))?;
    let rest = &src[at + marker.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix(':').ok_or_else(|| format!("`{key}` has no value"))?;
    Ok(rest.trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{phase_profile_json, PhaseProfile};

    fn profile(pairs: &[(&str, u64, u64)]) -> BenchProfile {
        let phases: Vec<PhaseProfile> = pairs
            .iter()
            .map(|&(name, count, total_us)| PhaseProfile {
                name: name.into(),
                count,
                total_us,
                max_us: total_us,
            })
            .collect();
        BenchProfile::parse(&phase_profile_json("test", &phases)).unwrap()
    }

    #[test]
    fn parses_the_committed_baseline() {
        // The repository ships BENCH_obs.json as the regression baseline;
        // the parser must always understand it.
        let profile =
            BenchProfile::parse(include_str!("../../../BENCH_obs.json")).expect("parse baseline");
        assert!(!profile.benchmark.is_empty());
        for phase in ["train", "map", "evaluate", "tune"] {
            let stat = profile.phase(phase).unwrap_or_else(|| panic!("missing phase {phase}"));
            assert!(stat.count > 0);
            assert!(stat.mean_ms > 0.0);
            assert!(stat.max_ms >= stat.mean_ms);
        }
        assert!(profile.total_instrumented_ms > 0.0);
    }

    #[test]
    fn round_trips_through_phase_profile_json() {
        let p = profile(&[("train", 3, 18_119), ("tune", 60, 149_269)]);
        assert_eq!(p.benchmark, "test");
        assert_eq!(p.phases.len(), 2);
        assert_eq!(p.phases[0].phase, "train");
        assert_eq!(p.phases[0].count, 3);
        assert!((p.phases[0].total_ms - 18.119).abs() < 1e-9);
        assert!((p.phases[1].mean_ms - 149.269 / 60.0).abs() < 1e-3);
    }

    #[test]
    fn parse_errors_name_the_field() {
        assert!(BenchProfile::parse("{}").unwrap_err().contains("benchmark"));
        let err = BenchProfile::parse("{\"benchmark\": \"x\", \"phases\": []}").unwrap_err();
        assert!(err.contains("no phases"), "got: {err}");
    }

    #[test]
    fn identical_profiles_have_no_regressions() {
        let p = profile(&[("train", 3, 18_119), ("tune", 60, 149_269)]);
        assert!(compare(&p, &p, &DiffConfig::default()).is_empty());
    }

    #[test]
    fn doubled_phase_time_is_flagged() {
        let base = profile(&[("train", 3, 18_000), ("tune", 60, 150_000)]);
        let slow = profile(&[("train", 3, 18_000), ("tune", 60, 300_000)]);
        let regressions = compare(&base, &slow, &DiffConfig::default());
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].phase, "tune");
        assert!((regressions[0].ratio - 2.0).abs() < 1e-9);
        assert!(regressions[0].to_string().contains("2.00x"));
        // The same pair passes under a looser cross-machine tolerance.
        let loose = DiffConfig { tolerance: 3.0, ..DiffConfig::default() };
        assert!(compare(&base, &slow, &loose).is_empty());
    }

    #[test]
    fn sub_floor_phases_are_ignored() {
        // 10 us mean vs 40 us mean is a 4x "regression" entirely inside
        // timer noise — the floor must suppress it.
        let base = profile(&[("evaluate", 10, 100)]);
        let jittery = profile(&[("evaluate", 10, 400)]);
        assert!(compare(&base, &jittery, &DiffConfig::default()).is_empty());
        // But a candidate far above the floor against a tiny baseline is
        // still caught, scaled against the floor.
        let blown_up = profile(&[("evaluate", 10, 10_000)]);
        let regressions = compare(&base, &blown_up, &DiffConfig::default());
        assert_eq!(regressions.len(), 1);
    }

    #[test]
    fn added_or_removed_phases_are_not_regressions() {
        let base = profile(&[("train", 1, 10_000), ("legacy", 1, 10_000)]);
        let cand = profile(&[("train", 1, 10_000), ("shiny", 1, 10_000)]);
        assert!(compare(&base, &cand, &DiffConfig::default()).is_empty());
    }

    fn profile_with_extras(extras: &[(&str, f64)]) -> BenchProfile {
        let phases =
            [PhaseProfile { name: "train".into(), count: 1, total_us: 10_000, max_us: 10_000 }];
        BenchProfile::parse(&crate::phase_profile_json_with("test", &phases, extras)).unwrap()
    }

    #[test]
    fn extras_round_trip_through_the_parser() {
        let p = profile_with_extras(&[("wear_total_stress", 1.25e-3), ("e2e_count", 384.0)]);
        assert_eq!(p.extra("wear_total_stress"), Some(1.25e-3));
        assert_eq!(p.extra("e2e_count"), Some(384.0));
        assert_eq!(p.extra("missing"), None);
        // Documents without an extras object (the pre-existing baselines)
        // still parse, with no extras.
        assert!(profile(&[("train", 1, 10_000)]).extras.is_empty());
    }

    #[test]
    fn drifted_or_vanished_extras_are_regressions() {
        let base = profile_with_extras(&[("wear_total_stress", 1.0e-3), ("e2e_count", 384.0)]);
        // Identical extras: clean.
        assert!(compare(&base, &base, &DiffConfig::default()).is_empty());
        // A 1% drift in a deterministic scalar is a regression.
        let drifted = profile_with_extras(&[("wear_total_stress", 1.01e-3), ("e2e_count", 384.0)]);
        let regressions = compare(&base, &drifted, &DiffConfig::default());
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].phase, "extra:wear_total_stress");
        // A vanished extra is too.
        let vanished = profile_with_extras(&[("wear_total_stress", 1.0e-3)]);
        let regressions = compare(&base, &vanished, &DiffConfig::default());
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].phase, "extra:e2e_count");
        // New extras in the candidate are not regressions (gates tighten
        // when the baseline is regenerated).
        assert!(compare(&vanished, &base, &DiffConfig::default()).is_empty());
    }
}
