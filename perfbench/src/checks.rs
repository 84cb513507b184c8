//! Output checks. Each is exact and compares against a value computed
//! during the same run by an independent path; none compares against a
//! constant recorded from one seed.

use crate::serve::Replay;
use paotr_exec::{ServeReport, Verdict, VerdictRecord};
use paotr_multi::{JointPlan, Workload};
use paotr_serverd::json::parse;
use paotr_serverd::{Daemon, Snapshot};

/// A timed `ServeLoop` round repeats the reference round exactly. Timed
/// rounds record no verdict log; `reference` is kept without its own.
pub fn rounds_repeat(reference: &ServeReport, round: &ServeReport) -> Result<(), String> {
    if round != reference || round.total_energy.to_bits() != reference.total_energy.to_bits() {
        return Err(format!(
            "a timed round differs from the reference round: served {} vs {}, energy {} vs {}",
            round.served, reference.served, round.total_energy, reference.total_energy
        ));
    }
    Ok(())
}

/// The replay reproduces the `ServeLoop` run: the same served count, a
/// bit-identical total energy and the same verdict log.
pub fn replay_matches(
    report: &ServeReport,
    verdicts: &[VerdictRecord],
    replay: &Replay,
) -> Result<(), String> {
    if replay.served != report.served {
        return Err(format!(
            "replay served {} evaluations, ServeLoop {}",
            replay.served, report.served
        ));
    }
    if replay.total_energy.to_bits() != report.total_energy.to_bits() {
        return Err(format!(
            "replay energy {:?} differs from ServeLoop energy {:?}",
            replay.total_energy, report.total_energy
        ));
    }
    if replay.verdicts != verdicts {
        let at = replay
            .verdicts
            .iter()
            .zip(verdicts)
            .position(|(a, b)| a != b)
            .unwrap_or(replay.verdicts.len().min(verdicts.len()));
        return Err(format!(
            "replay verdict log differs from ServeLoop's at entry {at}"
        ));
    }
    Ok(())
}

/// Every served verdict equals the reference value of the full DNF.
pub fn verdicts_match_reference(
    verdicts: &[VerdictRecord],
    reference: &[bool],
) -> Result<(), String> {
    if verdicts.len() != reference.len() {
        return Err(format!(
            "{} verdicts but {} reference values",
            verdicts.len(),
            reference.len()
        ));
    }
    for (v, &want) in verdicts.iter().zip(reference) {
        let got = match v.verdict {
            Verdict::True => true,
            Verdict::False => false,
            Verdict::Unknown => {
                return Err(format!(
                    "query {} at tick {} is unknown on a fault-free run",
                    v.query, v.tick
                ))
            }
        };
        if got != want || v.degraded {
            return Err(format!(
                "query {} at tick {} served {:?}, its full DNF is {want}",
                v.query, v.tick, v.verdict
            ));
        }
    }
    Ok(())
}

/// `paotr_check::verify_joint` accepts the joint plan.
pub fn joint_plan_verifies(joint: &JointPlan, workload: &Workload) -> Result<(), String> {
    let report = paotr_check::verify_joint(joint, workload);
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "verify_joint rejects the plan:\n{}",
            report.render()
        ))
    }
}

/// A `tick` reply's largest tick energy is at most the budget.
pub fn tick_within_budget(reply: &str, budget: f64) -> Result<(), String> {
    let energy = parse(reply)
        .ok()
        .and_then(|v| v.get("max_tick_energy")?.as_f64())
        .ok_or_else(|| format!("tick reply without max_tick_energy: {reply}"))?;
    if energy > budget {
        return Err(format!("a tick spent {energy}, over the budget {budget}"));
    }
    Ok(())
}

/// Every determined, non-degraded verdict of the faulted daemon equals
/// the fault-free twin's verdict for the same session at the same tick.
/// Returns how many verdicts were compared.
pub fn verdicts_agree(
    tick: u64,
    faulted: &[(u64, Verdict, bool)],
    clean: &[(u64, Verdict, bool)],
) -> Result<usize, String> {
    let mut compared = 0;
    for &(id, verdict, degraded) in faulted {
        if degraded || !verdict.is_determined() {
            continue;
        }
        if let Some(&(_, twin, _)) = clean.iter().find(|(cid, _, _)| *cid == id) {
            if twin != verdict {
                return Err(format!(
                    "session {id} before tick {tick}: faulted daemon served {verdict:?}, \
                     fault-free twin {twin:?}"
                ));
            }
            compared += 1;
        }
    }
    Ok(compared)
}

/// The incrementally maintained plan equals a cold re-plan.
pub fn digests_equal(live: &str, cold: &str) -> Result<(), String> {
    if live != cold {
        return Err("the live plan digest differs from a cold re-plan's".into());
    }
    Ok(())
}

/// `transported` (normally `live`'s rendered snapshot) parses, restores
/// and re-renders byte-identically to `live`'s snapshot, and the
/// restored daemon then serves the same `ticks`-tick batch as `live`.
pub fn snapshot_round_trip(live: &mut Daemon, transported: &str, ticks: u64) -> Result<(), String> {
    let original = live.snapshot().render();
    let snap = Snapshot::parse(transported).map_err(|e| format!("snapshot does not parse: {e}"))?;
    let mut restored =
        Daemon::from_snapshot(&snap).map_err(|e| format!("snapshot does not restore: {e}"))?;
    if restored.snapshot().render() != original {
        return Err("the restored daemon's snapshot differs from the original".into());
    }
    let a = live.run_ticks(ticks).map_err(|e| e.to_string())?;
    let b = restored.run_ticks(ticks).map_err(|e| e.to_string())?;
    if a != b {
        return Err("the restored daemon serves a different batch than the original".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon;
    use crate::serve::{self, Instr};
    use paotr_exec::AcceptAll;
    use paotr_gen::{workload_instance, WorkloadConfig};

    /// A small served workload, its recorded report and a checking
    /// replay.
    fn served(arranged: bool) -> (serve::Ready, ServeReport, Vec<VerdictRecord>, Replay) {
        let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(8, 0.6), 3);
        let cfg = serve::config(5, arranged, 30);
        let (ready, _) = serve::set_up(&trees, &catalog, cfg).unwrap();
        let recording = paotr_exec::ServeLoop::new(
            &ready.workload,
            &ready.joint,
            paotr_exec::ServeConfig {
                record_verdicts: true,
                ..cfg
            },
        );
        let mut report = recording.run(&mut AcceptAll, &ready.engine).unwrap();
        let verdicts = std::mem::take(&mut report.verdicts);
        let mut ins = Instr {
            reference: true,
            ..Instr::default()
        };
        let replay = serve::replay(&ready.workload, &ready.joint, &cfg, &mut ins);
        (ready, report, verdicts, replay)
    }

    #[test]
    fn serve_checks_pass_on_true_outputs() {
        for arranged in [false, true] {
            let (ready, report, verdicts, replay) = served(arranged);
            assert_eq!(replay.served, 8 * 30);
            replay_matches(&report, &verdicts, &replay).unwrap();
            verdicts_match_reference(&replay.verdicts, &replay.reference).unwrap();
            joint_plan_verifies(&ready.joint, &ready.workload).unwrap();
            rounds_repeat(&report, &report.clone()).unwrap();
        }
    }

    #[test]
    fn a_flipped_verdict_fails() {
        let (_, report, verdicts, replay) = served(true);
        let mut bad = replay.clone();
        bad.verdicts[17].verdict = match bad.verdicts[17].verdict {
            Verdict::True => Verdict::False,
            _ => Verdict::True,
        };
        assert!(replay_matches(&report, &verdicts, &bad).is_err());
        assert!(verdicts_match_reference(&bad.verdicts, &bad.reference).is_err());
        let mut wrong_reference = replay.reference.clone();
        wrong_reference[3] = !wrong_reference[3];
        assert!(verdicts_match_reference(&replay.verdicts, &wrong_reference).is_err());
    }

    #[test]
    fn perturbed_energy_fails() {
        let (_, report, verdicts, replay) = served(false);
        let mut bad = replay.clone();
        bad.total_energy = f64::from_bits(bad.total_energy.to_bits() + 1);
        assert!(replay_matches(&report, &verdicts, &bad).is_err());
        let mut round = report.clone();
        round.total_energy = f64::from_bits(round.total_energy.to_bits() - 1);
        assert!(rounds_repeat(&report, &round).is_err());
        let ok = r#"{"ok":true,"ticks":1,"tick":9,"energy":12.5,"max_tick_energy":12.5}"#;
        tick_within_budget(ok, 12.5).unwrap();
        assert!(tick_within_budget(ok, 12.499_999).is_err());
        assert!(tick_within_budget(r#"{"ok":true}"#, 12.5).is_err());
    }

    #[test]
    fn a_corrupted_joint_plan_fails() {
        let (ready, _, _, _) = served(false);
        let mut bad = ready.joint.clone();
        bad.order[1] = bad.order[0];
        assert!(joint_plan_verifies(&bad, &ready.workload).is_err());
    }

    #[test]
    fn daemon_verdict_mismatches_fail() {
        let faulted = [
            (1, Verdict::True, false),
            (2, Verdict::Unknown, false),
            (3, Verdict::False, true),
        ];
        let clean = [
            (1, Verdict::True, false),
            (2, Verdict::True, false),
            (3, Verdict::True, false),
        ];
        assert_eq!(verdicts_agree(4, &faulted, &clean), Ok(1));
        let flipped = [(1, Verdict::False, false), (2, Verdict::True, false)];
        assert!(verdicts_agree(4, &faulted, &flipped).is_err());
    }

    /// A daemon of the `daemon-churn` configuration after a short run.
    fn small_daemon() -> Daemon {
        let (mut d, _, _) = daemon::set_up(&daemon::script(2), true).unwrap();
        for _ in 0..15 {
            let (reply, _) = d.handle_line(r#"{"cmd":"tick"}"#);
            assert!(daemon::reply_ok(&reply), "{reply}");
        }
        d
    }

    #[test]
    fn a_mutated_digest_fails() {
        let d = small_daemon();
        let live = d.registry().plan_digest();
        let cold = d
            .registry()
            .cold_plan_digest(&paotr_core::plan::Engine::new())
            .unwrap();
        digests_equal(&live, &cold).unwrap();
        let mut bytes = cold.into_bytes();
        let at = bytes.iter().rposition(u8::is_ascii_digit).unwrap();
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        let mutated = String::from_utf8(bytes).unwrap();
        assert!(digests_equal(&live, &mutated).is_err());
    }

    #[test]
    fn snapshot_round_trip_passes_and_one_changed_byte_fails() {
        let mut d = small_daemon();
        let rendered = d.snapshot().render();
        snapshot_round_trip(&mut d, &rendered, 5).unwrap();

        let mut d = small_daemon();
        let rendered = d.snapshot().render();
        // One digit of the persisted tick counter.
        let at = rendered.find(r#""tick":"#).unwrap() + r#""tick":"#.len();
        let mut bytes = rendered.into_bytes();
        bytes[at] = if bytes[at] == b'9' {
            b'8'
        } else {
            bytes[at] + 1
        };
        let changed = String::from_utf8(bytes).unwrap();
        assert!(snapshot_round_trip(&mut d, &changed, 5).is_err());
    }
}
