//! Safety and convergence invariants evaluated at heal-phase
//! checkpoints.
//!
//! The ring checks are the classic Chord correctness conditions Zave
//! formalized ("How to Make Chord Correct"): one ring, ordered
//! successor lists free of corpses, every live node on the cycle, and
//! predecessors consistent with the cycle — [`d2_net::check_ring`], the
//! definition `d2-node check` holds a live cluster to, run here on the
//! runtimes' own [`d2_net::NodeRuntime::status`]. The storage checks
//! encode the redundancy contract on top. Replicated scenarios demand
//! that once the network heals, every *acked* put is readable from its
//! current owner and its replica count converges back to the
//! configured factor `r` on the owner-plus-successors chain.
//! Erasure-coded scenarios demand reconstructability instead: at least
//! `min(k, live)` distinct valid fragments of one write generation
//! survive on live nodes and decode back to the original bytes — full
//! group occupancy is deliberately *not* required, because lazy repair
//! leaves losses at or above the repair threshold alone.
//!
//! All checks are pure reads of protocol state — they see exactly what
//! the nodes believe, not a parallel model — and they are evaluated
//! only at quiescent points (after fault injection has ended), where a
//! correct protocol must have reached its fixed point. A failing run
//! reports the *last* violation, i.e. the condition that never became
//! true.

use crate::world::SimWorld;
use d2_net::{NodeStatus, RedundancyPolicy};
use d2_ring::messages::Addr;
use std::collections::BTreeMap;

/// Evaluates every invariant; the first violated one is the verdict.
pub fn check_all(w: &SimWorld) -> Result<(), String> {
    let live: Vec<Addr> = w.live_nodes().map(|(a, _)| a).collect();
    if live.len() < 2 {
        return Err(format!("only {} live nodes — scenario bug", live.len()));
    }
    let statuses: Vec<NodeStatus> = w.live_nodes().map(|(_, rt)| rt.status()).collect();
    if let Some(v) = d2_net::check_ring(&statuses).violations.into_iter().next() {
        return Err(v);
    }
    check_puts_acked(w)?;
    check_storage(w, &live)?;
    Ok(())
}

/// Liveness of the workload: with faults over and the client still
/// retrying, every put must eventually be acked with all `r` copies,
/// and every lookup answered or out of attempts.
fn check_puts_acked(w: &SimWorld) -> Result<(), String> {
    for (i, op) in w.client_ops().iter().enumerate() {
        match (op.done(), op.is_put()) {
            (true, _) => {}
            (false, true) => return Err(format!("client put {i} still unacked")),
            (false, false) => return Err(format!("client lookup {i} still pending")),
        }
    }
    Ok(())
}

/// Storage convergence dispatch: fragment reconstructability under an
/// erasure-coded scenario, replica-chain convergence otherwise.
fn check_storage(w: &SimWorld, live: &[Addr]) -> Result<(), String> {
    match w.redundancy() {
        RedundancyPolicy::Replicate { r } => check_storage_replicated(w, live, r),
        p => check_storage_ec(w, live, p),
    }
}

/// Reconstructability for every acked put under erasure coding: at
/// least `min(k, live)` distinct valid fragments of one write
/// generation survive on live nodes, and they decode back to the bytes
/// the client put. The floor is `k`, not the group size `n`: lazy
/// repair intentionally ignores losses at or above the repair
/// threshold, so full occupancy is a non-goal — what must never degrade
/// is the ability to reconstruct.
fn check_storage_ec(w: &SimWorld, live: &[Addr], policy: RedundancyPolicy) -> Result<(), String> {
    let k = policy.min_fragments();
    let codec = d2_ec::Codec::for_policy(policy).expect("dispatch picked an erasure policy");
    for (i, op) in w.client_ops().iter().enumerate() {
        if !op.acked() {
            continue;
        }
        let key = op.key();
        // Group the survivors by write generation: a put racing a
        // repair can strand a stale generation on some member, and the
        // codec refuses mixed-generation input. One generation has to
        // carry the key.
        let mut by_gen: BTreeMap<u64, Vec<d2_ec::Fragment>> = BTreeMap::new();
        for (_, rt) in w.live_nodes() {
            let Some(sf) = rt.fragment(&key) else {
                continue;
            };
            if sf.block_len as usize != op.data().len() || !sf.frag.verify() {
                continue;
            }
            let set = by_gen.entry(sf.frag.generation).or_default();
            if !set.iter().any(|f| f.index == sf.frag.index) {
                set.push(sf.frag.clone());
            }
        }
        // Prefer the fullest generation; ties go to the newest write.
        let best = by_gen.iter().max_by_key(|(gen, set)| (set.len(), **gen));
        let have = best.map_or(0, |(_, set)| set.len());
        let want = k.min(live.len());
        if have < want {
            return Err(format!(
                "acked put {i}: {have} of {want} distinct valid fragments survive"
            ));
        }
        if have >= k {
            let (_, set) = best.expect("have >= k > 0");
            let decoded = codec
                .decode(set, op.data().len())
                .map_err(|e| format!("acked put {i}: surviving fragments do not decode: {e}"))?;
            if decoded != op.data() {
                return Err(format!("acked put {i}: decoded bytes differ from the put"));
            }
        }
    }
    Ok(())
}

/// Storage convergence for every acked put under replication: the
/// current owner holds the block, at least `min(r, live)` live nodes
/// hold it, and the canonical chain — the owner plus its first `r - 1`
/// successors — is fully populated (the state replica repair must
/// restore after any healed churn).
fn check_storage_replicated(w: &SimWorld, live: &[Addr], r: usize) -> Result<(), String> {
    // Ring-ordered live ids, for ownership: the owner of `key` is the
    // first live node at or clockwise-after it.
    let mut ids: Vec<(d2_types::Key, Addr)> = w
        .live_nodes()
        .map(|(a, rt)| (rt.protocol().me().id, a))
        .collect();
    ids.sort();
    let owner_of =
        |key: &d2_types::Key| -> Addr { ids.iter().find(|(id, _)| id >= key).unwrap_or(&ids[0]).1 };
    let holders = |key: &d2_types::Key, data: &[u8]| -> Vec<Addr> {
        w.live_nodes()
            .filter(|(_, rt)| rt.block(key) == Some(data))
            .map(|(a, _)| a)
            .collect()
    };
    for (i, op) in w.client_ops().iter().enumerate() {
        if !op.acked() {
            continue;
        }
        let key = op.key();
        let owner = owner_of(&key);
        let have = holders(&key, op.data());
        if !have.contains(&owner) {
            return Err(format!(
                "acked put {i}: owner node {owner} does not hold the block (copies on {have:?})"
            ));
        }
        let want = r.min(live.len());
        if have.len() < want {
            return Err(format!(
                "acked put {i}: {} of {want} replicas present (on {have:?})",
                have.len()
            ));
        }
        // The canonical placement: owner + its first r-1 successors.
        let (_, owner_rt) = w
            .live_nodes()
            .find(|&(a, _)| a == owner)
            .expect("owner is live");
        for s in owner_rt.protocol().successors().iter().take(r - 1) {
            if !have.contains(&s.addr) {
                return Err(format!(
                    "acked put {i}: chain successor {} of owner {owner} lacks the block",
                    s.addr
                ));
            }
        }
    }
    Ok(())
}
