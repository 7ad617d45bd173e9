//! In-process reference answers for serve requests, computed through
//! the public synthesis, STA, area, mapper and explorer calls. The
//! serve workloads recompute a sample of the server's misses here and
//! compare the decoded responses field by field.

use adgen_affine::{fit_sequence, AffineAgNetlist};
use adgen_core::mapper::map_sequence;
use adgen_explorer::{evaluate, pareto_frontier, EvaluateOptions};
use adgen_netlist::{AreaReport, Library, Netlist, TimingAnalysis};
use adgen_seq::{AddressSequence, ArrayShape};
use adgen_serve::protocol::CandidateRow;
use adgen_serve::{Generator, MapOutcome, Request, Response, SynthReport};
use adgen_synth::{EffortBudget, Encoding, Fsm, OutputStyle};

/// Area, critical path and flip-flop count of `netlist`.
fn measure(netlist: &Netlist, library: &Library) -> Result<SynthReport, String> {
    let timing = TimingAnalysis::run(netlist, library).map_err(|e| e.to_string())?;
    Ok(SynthReport {
        area: AreaReport::of(netlist, library).total(),
        delay_ps: timing.critical_path_ps(),
        flip_flops: netlist.num_flip_flops() as u32,
        truncated: false,
    })
}

fn budget(effort_steps: u64) -> EffortBudget {
    if effort_steps == 0 {
        EffortBudget::synthesis_default()
    } else {
        EffortBudget::steps(effort_steps)
    }
}

/// The response the server must give `request`.
///
/// # Errors
///
/// A description of the first failing call; none of the requests the
/// benchmark issues should fail.
pub fn response(request: &Request, library: &Library) -> Result<Response, String> {
    match request {
        Request::MapSequence { sequence } => {
            let outcome = match map_sequence(&AddressSequence::from_vec(sequence.clone())) {
                Ok(m) => MapOutcome::Mapped {
                    registers: m
                        .spec
                        .registers
                        .iter()
                        .map(|r| r.lines().to_vec())
                        .collect(),
                    div_count: m.spec.div_count as u32,
                    pass_count: m.spec.pass_count as u32,
                    num_lines: m.spec.num_lines as u32,
                },
                Err(e) => MapOutcome::Violation {
                    reason: e.to_string(),
                },
            };
            Ok(Response::Mapped(outcome))
        }
        Request::Synthesize {
            sequence,
            encoding,
            num_lines,
            effort_steps,
            generator: Generator::Fsm,
        } => {
            let style = OutputStyle::SelectLines {
                num_lines: *num_lines as usize,
            };
            let s = Fsm::cyclic_sequence(sequence)
                .and_then(|f| f.synthesize_budgeted(*encoding, style, budget(*effort_steps)))
                .map_err(|e| e.to_string())?;
            let mut report = measure(&s.netlist, library)?;
            report.truncated = s.truncated;
            Ok(Response::Synthesized(report))
        }
        Request::Synthesize {
            sequence,
            generator: Generator::Affine,
            ..
        } => {
            let fit = fit_sequence(sequence).map_err(|e| e.to_string())?;
            let design = AffineAgNetlist::elaborate(&fit.spec).map_err(|e| e.to_string())?;
            let mut report = measure(&design.netlist, library)?;
            if !fit.residual.is_empty() {
                // Any non-affine tail is priced as a binary side FSM.
                let style = OutputStyle::BinaryAddress {
                    bits: fit.spec.addr_width as usize,
                };
                let s = Fsm::cyclic_sequence(&fit.residual)
                    .and_then(|f| f.synthesize_budgeted(Encoding::Binary, style, budget(0)))
                    .map_err(|e| e.to_string())?;
                let side = measure(&s.netlist, library)?;
                report.area += side.area;
                report.delay_ps = report.delay_ps.max(side.delay_ps);
                report.flip_flops += side.flip_flops;
                report.truncated = s.truncated;
            }
            Ok(Response::Synthesized(report))
        }
        Request::Explore {
            sequence,
            width,
            height,
            fsm_state_limit,
        } => {
            let mut options = EvaluateOptions::default();
            if *fsm_state_limit > 0 {
                options.fsm_state_limit = *fsm_state_limit as usize;
            }
            let eval = evaluate(
                &AddressSequence::from_vec(sequence.clone()),
                ArrayShape::new(*width, *height),
                library,
                &options,
            );
            let pareto = pareto_frontier(&eval.candidates)
                .into_iter()
                .map(|c| CandidateRow {
                    architecture: c.architecture.to_string(),
                    delay_ps: c.delay_ps,
                    area: c.area,
                    flip_flops: c.flip_flops as u32,
                })
                .collect();
            Ok(Response::Explored {
                pareto,
                rejected: eval.rejected.len() as u32,
            })
        }
        Request::Ping | Request::Stats | Request::Shutdown => {
            Err(format!("{request:?} is not a compute request"))
        }
    }
}

/// Whether `payload` decodes to a result of the kind `request` asks
/// for (not a typed error, not another kind).
pub fn answers(request: &Request, payload: &[u8]) -> bool {
    matches!(
        (request, Response::decode(payload)),
        (Request::MapSequence { .. }, Ok(Response::Mapped(_)))
            | (Request::Synthesize { .. }, Ok(Response::Synthesized(_)))
            | (Request::Explore { .. }, Ok(Response::Explored { .. }))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::hot_set;

    #[test]
    fn every_hot_request_has_a_reference_answer() {
        let library = Library::vcl018();
        for req in hot_set(11).iter().take(40) {
            let resp = response(req, &library).unwrap();
            assert!(answers(req, &resp.encode()), "{req:?} -> {resp:?}");
        }
    }
}
