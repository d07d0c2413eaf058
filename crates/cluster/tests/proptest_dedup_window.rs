//! Differential property: `DedupWindow`, whose journal is a hash map, answers
//! every operation exactly as the ordered-map window it replaced.
//!
//! `ReferenceWindow` below is that earlier window, kept verbatim as the
//! specification: a `BTreeMap` journal plus a `VecDeque` eviction order.
//! Random sequences of every operation run against both, over capacities
//! 0–4 and a small id range so ids repeat, get forgotten, re-recorded,
//! extracted and evicted. Results must be equal, the handoff exports
//! (`peek_group`, `extract_group`) in id order, and `len` / `approx_bytes`
//! must agree after every step.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use dmps_cluster::{DedupWindow, GlobalGroupId};
use proptest::prelude::*;

/// The ordered-map dedup window, as it was before the journal was hashed.
struct ReferenceWindow<T> {
    capacity: usize,
    order: VecDeque<u64>,
    outcomes: BTreeMap<u64, (GlobalGroupId, Arc<T>)>,
}

impl<T> ReferenceWindow<T> {
    fn new(capacity: usize) -> Self {
        ReferenceWindow {
            capacity,
            order: VecDeque::new(),
            outcomes: BTreeMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.outcomes.len()
    }

    fn get(&self, id: u64) -> Option<&Arc<T>> {
        self.outcomes.get(&id).map(|(_, outcome)| outcome)
    }

    fn record(&mut self, id: u64, group: GlobalGroupId, outcome: Arc<T>) {
        if self.capacity == 0 || self.outcomes.contains_key(&id) {
            return;
        }
        while self.outcomes.len() >= self.capacity {
            let Some(evicted) = self.order.pop_front() else {
                break;
            };
            self.outcomes.remove(&evicted);
        }
        self.order.push_back(id);
        self.outcomes.insert(id, (group, outcome));
    }

    fn peek_group(&self, group: GlobalGroupId) -> Vec<(u64, Arc<T>)> {
        self.outcomes
            .iter()
            .filter(|(_, (g, _))| *g == group)
            .map(|(&id, (_, outcome))| (id, outcome.clone()))
            .collect()
    }

    fn extract_group(&mut self, group: GlobalGroupId) -> Vec<(u64, Arc<T>)> {
        let ids: Vec<u64> = self
            .outcomes
            .iter()
            .filter(|(_, (g, _))| *g == group)
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter()
            .map(|id| {
                let (_, outcome) = self.outcomes.remove(&id).expect("listed above");
                (id, outcome)
            })
            .collect()
    }

    fn install(&mut self, group: GlobalGroupId, entries: Vec<(u64, Arc<T>)>) {
        for (id, outcome) in entries {
            self.record(id, group, outcome);
        }
    }

    fn approx_bytes(&self) -> u64 {
        let per_entry = (std::mem::size_of::<u64>()
            + std::mem::size_of::<(GlobalGroupId, Arc<T>)>()
            + std::mem::size_of::<T>()) as u64;
        self.outcomes.len() as u64 * per_entry
    }

    fn forget(&mut self, id: u64) {
        if self.outcomes.remove(&id).is_some() {
            self.order.retain(|&queued| queued != id);
        }
    }
}

/// One operation on both windows.
#[derive(Debug, Clone, Copy)]
enum Step {
    Record(u64, u64),
    Get(u64),
    Forget(u64),
    Peek(u64),
    Extract(u64),
    /// Installs the most recent extract (or peek) under a group.
    Install(u64),
}

use Step::{Extract, Forget, Get, Install, Peek, Record};

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..10, 0u64..10, 0u64..3).prop_map(|(kind, id, group)| match kind {
        0..=3 => Record(id, group),
        4 => Get(id),
        5 => Forget(id),
        6 => Peek(group),
        7 => Extract(group),
        _ => Install(group),
    })
}

/// Both windows plus the last exported journal slice, which `Install`
/// hands back to both.
struct Pair {
    window: DedupWindow<u64>,
    reference: ReferenceWindow<u64>,
    exported: Vec<(u64, Arc<u64>)>,
    /// Distinct outcome per record, so a wrong entry cannot look right.
    next_outcome: u64,
}

/// Equal ids in the same order, and the very same shared outcomes.
fn same_entries(a: &[(u64, Arc<u64>)], b: &[(u64, Arc<u64>)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((x, p), (y, q))| x == y && Arc::ptr_eq(p, q))
}

impl Pair {
    fn new(capacity: usize) -> Self {
        Pair {
            window: DedupWindow::new(capacity),
            reference: ReferenceWindow::new(capacity),
            exported: Vec::new(),
            next_outcome: 0,
        }
    }

    fn step(&mut self, step: Step) -> Result<(), TestCaseError> {
        match step {
            Record(id, group) => {
                self.next_outcome += 1;
                let outcome = Arc::new(self.next_outcome);
                self.window
                    .record(id, GlobalGroupId(group), outcome.clone());
                self.reference.record(id, GlobalGroupId(group), outcome);
            }
            Get(id) => {
                let (got, want) = (self.window.get(id), self.reference.get(id));
                prop_assert!(
                    match (got, want) {
                        (Some(p), Some(q)) => Arc::ptr_eq(p, q),
                        (None, None) => true,
                        _ => false,
                    },
                    "get({id}): {got:?} vs reference {want:?}"
                );
            }
            Forget(id) => {
                self.window.forget(id);
                self.reference.forget(id);
            }
            Peek(group) | Extract(group) => {
                let group = GlobalGroupId(group);
                let (got, want) = if let Peek(_) = step {
                    (
                        self.window.peek_group(group),
                        self.reference.peek_group(group),
                    )
                } else {
                    (
                        self.window.extract_group(group),
                        self.reference.extract_group(group),
                    )
                };
                prop_assert!(
                    same_entries(&got, &want),
                    "{step:?}: {got:?} vs reference {want:?}"
                );
                prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "id order");
                self.exported = got;
            }
            Install(group) => {
                let entries = std::mem::take(&mut self.exported);
                self.window.install(GlobalGroupId(group), entries.clone());
                self.reference.install(GlobalGroupId(group), entries);
            }
        }
        prop_assert_eq!(
            self.window.len(),
            self.reference.len(),
            "len after {:?}",
            step
        );
        prop_assert_eq!(self.window.is_empty(), self.reference.len() == 0);
        prop_assert_eq!(
            self.window.approx_bytes(),
            self.reference.approx_bytes(),
            "approx_bytes after {:?}",
            step
        );
        Ok(())
    }

    fn run(&mut self, steps: &[Step]) -> Result<(), TestCaseError> {
        steps.iter().try_for_each(|&step| self.step(step))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn hashed_window_answers_like_the_ordered_reference(
        capacity in 0usize..5,
        steps in proptest::collection::vec(arb_step(), 1..60),
    ) {
        Pair::new(capacity).run(&steps)?;
    }
}

#[test]
fn a_forgotten_id_recorded_again_lives_a_full_term() {
    // A rolled-back id is retried and recorded again on the same shard; a
    // stale copy of it left in the eviction order would evict the live
    // entry before it is the oldest.
    let mut pair = Pair::new(2);
    pair.run(&[
        Record(5, 0),
        Forget(5),
        Record(7, 0),
        Record(5, 0),
        Record(9, 0),
    ])
    .unwrap();
    assert!(pair.window.get(5).is_some(), "the re-recorded id survives");
    assert!(pair.window.get(9).is_some());
    assert!(pair.window.get(7).is_none(), "the oldest entry was evicted");
    pair.run(&[Get(5), Get(7), Get(9)]).unwrap();
}

#[test]
fn eviction_skips_ids_a_migration_extracted() {
    // Ids 1 and 3 follow their group to another shard but stay queued in
    // the eviction order; filling the window again must skip them and
    // evict the oldest entry actually present (2), not under-fill.
    let mut pair = Pair::new(3);
    pair.run(&[Record(1, 0), Record(2, 1), Record(3, 0), Extract(0)])
        .unwrap();
    assert_eq!(
        pair.exported.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
        [1, 3]
    );
    pair.run(&[Record(4, 1), Record(5, 1), Record(6, 1)])
        .unwrap();
    assert_eq!(pair.window.len(), 3);
    assert!(pair.window.get(2).is_none(), "the oldest live entry went");
    pair.run(&[Get(2), Get(4), Get(5), Get(6), Peek(1)])
        .unwrap();
    assert_eq!(
        pair.exported.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
        [4, 5, 6]
    );
}
