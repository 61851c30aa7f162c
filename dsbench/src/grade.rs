//! The checkers: every output the benchmark gets is compared with a
//! computation made apart from the code under test.
//!
//! * dossiers against the simulated chip's ground truth;
//! * daemon tier counters against an LRU model of the memory bound;
//! * `query` match counts against a brute-force count over the decoded
//!   trace, with a predicate written here;
//! * cached dossier text byte for byte against the miss that made it.
//!
//! [`self_test`] feeds each checker a doctored output and reports any
//! checker that fails to reject it.

use dram_sim::{ChipProfile, Command, DramChip, PolarityScheme, RowRemap};
use dram_trace::{Trace, TraceEvent};
use dramscope_core::ChipDossier;
use std::collections::BTreeMap;

/// The fault name F1 failures are counted under.
pub const F1: &str = "F1 on-die ECC false positive (ecc_probe::detect_on_die_ecc)";

/// What the probes should find on one simulated device.
#[derive(Debug, Clone)]
pub struct Truth {
    heights: Vec<u32>,
    /// The repeating subarray-height block.
    block: Vec<u32>,
    edge_interval: u32,
    coupled_distance: Option<u32>,
    polarity: &'static str,
    remap: &'static str,
    on_die_ecc: bool,
}

impl Truth {
    /// Ground truth of a chip built from `(profile, seed)`.
    pub fn of(profile: &ChipProfile, seed: u64) -> Truth {
        let gt = DramChip::new(profile.clone(), seed).ground_truth();
        Truth {
            heights: gt.subarray_heights,
            block: gt.composition,
            edge_interval: gt.edge_interval_wls,
            coupled_distance: gt.coupled_distance,
            polarity: match gt.polarity {
                PolarityScheme::AllTrue => "AllTrue",
                PolarityScheme::SubarrayInterleaved => "Mixed",
            },
            remap: match gt.remap {
                RowRemap::Identity => "Sequential",
                RowRemap::MfrA => "Scrambled",
            },
            on_die_ecc: gt.on_die_ecc,
        }
    }
}

/// The fields of a dossier the grader reads, from either the
/// structured dossier or its rendered text.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Measured heights (only the structured dossier carries them).
    pub heights: Option<Vec<u32>>,
    pub composition: String,
    pub edge_interval: Option<u32>,
    pub edge_interval_from_power: Option<u32>,
    pub coupled_distance: Option<u32>,
    pub polarity: String,
    pub remap: String,
    pub trr: String,
    pub on_die_ecc: String,
}

impl Observed {
    pub fn of(d: &ChipDossier) -> Observed {
        Observed {
            heights: Some(d.subarray_heights.clone()),
            composition: d.composition.clone(),
            edge_interval: d.edge_interval,
            edge_interval_from_power: d.edge_interval_from_power,
            coupled_distance: d.coupled_distance,
            polarity: format!("{:?}", d.polarity),
            remap: format!("{:?}", d.remap),
            trr: format!("{:?}", d.trr),
            on_die_ecc: format!("{:?}", d.on_die_ecc),
        }
    }

    /// Reads the rendered dossier text a daemon returns.
    pub fn parse(text: &str) -> Result<Observed, String> {
        let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once(": ") {
                fields.insert(k, v);
            }
        }
        let get = |k: &str| {
            fields
                .get(k)
                .copied()
                .ok_or_else(|| format!("dossier text has no \"{k}\" line"))
        };
        let rows = |s: &str| -> Result<Option<u32>, String> {
            if s == "none" {
                return Ok(None);
            }
            s.strip_suffix(" rows")
                .and_then(|n| n.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("bad row count \"{s}\""))
        };
        let edge = get("edge-subarray interval")?;
        let (direct, power) = edge
            .strip_suffix(')')
            .and_then(|e| e.split_once(" (power cross-check: "))
            .ok_or_else(|| format!("bad edge line \"{edge}\""))?;
        Ok(Observed {
            heights: None,
            composition: get("subarray composition")?.to_string(),
            edge_interval: rows(direct)?,
            edge_interval_from_power: rows(power)?,
            coupled_distance: rows(get("coupled-row distance")?)?,
            polarity: get("cell polarity")?.to_string(),
            remap: get("row decoder")?.to_string(),
            trr: get("in-DRAM TRR")?.to_string(),
            on_die_ecc: get("on-die ECC")?.to_string(),
        })
    }
}

/// A composition as `height -> count` over one period, reduced by the
/// counts' common divisor so that two renderings of the same period
/// compare equal.
fn normalized(counts: &BTreeMap<u32, u32>) -> BTreeMap<u32, u32> {
    fn gcd(a: u32, b: u32) -> u32 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let g = counts.values().fold(0, |g, &c| gcd(g, c)).max(1);
    counts.iter().map(|(&h, &c)| (h, c / g)).collect()
}

/// Parses `"11 x 640-row + 2 x 576-row (per 8192)"`.
fn parse_composition(s: &str) -> Option<BTreeMap<u32, u32>> {
    let (body, _) = s.split_once(" (per ")?;
    let mut counts = BTreeMap::new();
    for term in body.split(" + ") {
        let (count, height) = term.split_once(" x ")?;
        let height = height.strip_suffix("-row")?.parse().ok()?;
        *counts.entry(height).or_default() += count.parse::<u32>().ok()?;
    }
    Some(counts)
}

/// The grade of one dossier.
#[derive(Debug, Clone, PartialEq)]
pub enum Grade {
    Pass,
    /// Everything matches except a `Present` ECC verdict on a device
    /// without on-die ECC.
    F1,
    /// Any other disagreement with ground truth.
    Mismatch(Vec<String>),
}

/// Grades a dossier against its device's ground truth.
pub fn grade(obs: &Observed, truth: &Truth) -> Grade {
    let mut wrong = Vec::new();
    if let Some(heights) = &obs.heights {
        let n = heights.len();
        if n == 0 || n > truth.heights.len() || heights[..] != truth.heights[..n] {
            wrong.push(format!(
                "subarray heights {:?} are not a prefix of {:?}",
                &heights[..n.min(6)],
                &truth.heights[..truth.heights.len().min(6)]
            ));
        }
    }
    let block: BTreeMap<u32, u32> = truth.block.iter().fold(BTreeMap::new(), |mut m, &h| {
        *m.entry(h).or_default() += 1;
        m
    });
    match parse_composition(&obs.composition) {
        Some(c) if normalized(&c) == normalized(&block) => {}
        _ => wrong.push(format!(
            "composition \"{}\" is not the block {:?}",
            obs.composition, truth.block
        )),
    }
    let edge = Some(truth.edge_interval);
    if obs.edge_interval != edge || obs.edge_interval_from_power != edge {
        wrong.push(format!(
            "edge interval {:?} / power {:?}, truth {}",
            obs.edge_interval, obs.edge_interval_from_power, truth.edge_interval
        ));
    }
    if obs.coupled_distance != truth.coupled_distance {
        wrong.push(format!(
            "coupled distance {:?}, truth {:?}",
            obs.coupled_distance, truth.coupled_distance
        ));
    }
    if obs.polarity != truth.polarity {
        wrong.push(format!(
            "polarity {}, truth {}",
            obs.polarity, truth.polarity
        ));
    }
    if obs.remap != truth.remap {
        wrong.push(format!("remap {}, truth {}", obs.remap, truth.remap));
    }
    // TRR is disabled on every profile the benchmark characterizes.
    if obs.trr != "Absent" {
        wrong.push(format!("TRR {}, truth Absent", obs.trr));
    }
    let ecc = if truth.on_die_ecc {
        "Present"
    } else {
        "Absent"
    };
    let ecc_false_positive = !truth.on_die_ecc && obs.on_die_ecc == "Present";
    if obs.on_die_ecc != ecc && !ecc_false_positive {
        wrong.push(format!("on-die ECC {}, truth {ecc}", obs.on_die_ecc));
    }
    match (wrong.is_empty(), ecc_false_positive) {
        (true, false) => Grade::Pass,
        (true, true) => Grade::F1,
        (false, _) => Grade::Mismatch(wrong),
    }
}

/// Which cache tier served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Memory,
    Disk,
}

/// A model of the daemon's bounded memory tier: least recently used
/// entry evicted first, a disk hit adopted as most recently used.
#[derive(Debug, Clone)]
pub struct Lru {
    cap: usize,
    /// Resident keys, least recently used first.
    order: Vec<u64>,
}

impl Lru {
    pub fn new(cap: usize) -> Lru {
        Lru {
            cap,
            order: Vec::new(),
        }
    }

    /// Inserts a key as most recently used; returns evictions.
    pub fn insert(&mut self, key: u64) -> u64 {
        self.order.retain(|&k| k != key);
        self.order.push(key);
        let over = self.order.len().saturating_sub(self.cap);
        self.order.drain(..over);
        over as u64
    }

    /// One request for a persisted key: the tier that serves it and
    /// the evictions it causes.
    pub fn access(&mut self, key: u64) -> (Tier, u64) {
        let tier = if self.order.contains(&key) {
            Tier::Memory
        } else {
            Tier::Disk
        };
        (tier, self.insert(key))
    }

    pub fn resident(&self) -> &[u64] {
        &self.order
    }
}

/// The daemon counters a read workload predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tiers {
    pub hits: u64,
    pub disk_hits: u64,
    pub evictions: u64,
    pub executions: u64,
}

pub fn check_tiers(predicted: Tiers, observed: Tiers) -> Result<(), String> {
    if predicted == observed {
        Ok(())
    } else {
        Err(format!(
            "daemon counters {observed:?} differ from the LRU model's {predicted:?}"
        ))
    }
}

/// Cached text must equal, byte for byte, the miss that created it.
pub fn check_text(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "dossier text differs from its miss at byte {at} ({} vs {} bytes)",
        expected.len(),
        got.len()
    ))
}

/// Events of one trace addressing `bank` with the command `mnemonic`
/// (`act`, `pre`, `rd` or `wr`), counted one by one.
pub fn brute_count(trace: &Trace, mnemonic: &str, bank: u32) -> u64 {
    trace
        .events
        .iter()
        .filter(|ev| {
            let TraceEvent::Command { cmd, .. } = ev else {
                return false;
            };
            let b = match (mnemonic, cmd) {
                ("act", Command::Activate { bank, .. })
                | ("pre", Command::Precharge { bank })
                | ("rd", Command::Read { bank, .. })
                | ("wr", Command::Write { bank, .. }) => *bank,
                _ => return false,
            };
            b == bank
        })
        .count() as u64
}

pub fn check_query(expected: u64, reported: u64) -> Result<(), String> {
    if expected == reported {
        Ok(())
    } else {
        Err(format!(
            "query matched {reported}, brute-force count {expected}"
        ))
    }
}

/// Feeds every checker a doctored output; returns the checkers that
/// accepted it (empty when all reject as they must).
pub fn self_test() -> Vec<String> {
    let mut broken = Vec::new();
    let truth = Truth {
        heights: vec![40, 24, 40, 24, 40],
        block: vec![40, 24],
        edge_interval: 256,
        coupled_distance: None,
        polarity: "AllTrue",
        remap: "Sequential",
        on_die_ecc: false,
    };
    let good = Observed {
        heights: Some(vec![40, 24, 40]),
        composition: "1 x 40-row + 1 x 24-row (per 64)".into(),
        edge_interval: Some(256),
        edge_interval_from_power: Some(256),
        coupled_distance: None,
        polarity: "AllTrue".into(),
        remap: "Sequential".into(),
        trr: "Absent".into(),
        on_die_ecc: "Absent".into(),
    };
    if grade(&good, &truth) != Grade::Pass {
        broken.push("grade rejects a correct dossier".to_string());
    }
    let flipped = Observed {
        polarity: "Mixed".into(),
        ..good.clone()
    };
    if !matches!(grade(&flipped, &truth), Grade::Mismatch(_)) {
        broken.push("grade accepts a flipped polarity verdict".to_string());
    }
    let ecc = Observed {
        on_die_ecc: "Present".into(),
        ..good.clone()
    };
    if grade(&ecc, &truth) != Grade::F1 {
        broken.push("grade does not report a flipped ECC verdict as F1".to_string());
    }
    if check_query(1234, 1235).is_ok() {
        broken.push("check_query accepts a count off by one".to_string());
    }
    let text = "=== device dossier: x ===\non-die ECC: Absent\n";
    let mut doctored = text.as_bytes().to_vec();
    doctored[7] ^= 1;
    let doctored = String::from_utf8(doctored).expect("ASCII stays UTF-8");
    if check_text(text, &doctored).is_ok() {
        broken.push("check_text accepts a hit with one differing byte".to_string());
    }
    let tiers = Tiers {
        hits: 10,
        disk_hits: 4,
        evictions: 4,
        executions: 0,
    };
    let off = Tiers {
        disk_hits: 5,
        ..tiers
    };
    if check_tiers(tiers, off).is_ok() {
        broken.push("check_tiers accepts a tier count off by one".to_string());
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_checker_rejects_its_doctored_output() {
        assert_eq!(self_test(), Vec::<String>::new());
    }

    #[test]
    fn parses_rendered_dossier_text() {
        let text = "=== device dossier: Test ===\n\
            subarray composition: 1 x 40-row + 1 x 24-row (per 64)\n\
            edge-subarray interval: 256 rows (power cross-check: 256 rows)\n\
            coupled-row distance: none\n\
            cross-subarray copy inverted: false\n\
            cell polarity: AllTrue\n\
            row decoder: Sequential\n\
            in-DRAM TRR: Absent\n\
            on-die ECC: Present\n";
        let obs = Observed::parse(text).expect("well-formed text");
        assert_eq!(obs.edge_interval_from_power, Some(256));
        assert_eq!(obs.coupled_distance, None);
        assert_eq!(obs.on_die_ecc, "Present");
        assert!(Observed::parse("=== device dossier: Test ===\n").is_err());
    }

    #[test]
    fn lru_model_thrashes_on_a_cycle_longer_than_the_bound() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.insert(1), 0);
        assert_eq!(lru.insert(2), 0);
        assert_eq!(lru.access(1), (Tier::Memory, 0));
        assert_eq!(lru.access(3), (Tier::Disk, 1));
        assert_eq!(lru.resident(), [1, 3]);
        let tiers: Vec<Tier> = [2, 1, 3, 2].iter().map(|&k| lru.access(k).0).collect();
        assert_eq!(tiers, [Tier::Disk; 4]);
    }

    #[test]
    fn composition_periods_compare_by_ratio() {
        let a = parse_composition("2 x 688-row + 4 x 672-row (per 4064)").unwrap();
        let b = parse_composition("1 x 688-row + 2 x 672-row (per 2032)").unwrap();
        assert_eq!(normalized(&a), normalized(&b));
    }
}
