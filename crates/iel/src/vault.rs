//! Corda's UTXO vault: unconsumed states and the linear-scan queries that
//! dominate Corda OS read performance.
//!
//! Corda has no global key/value store; data lives in *states* produced by
//! transactions and consumed by later ones. The paper implements its IELs
//! "only using the functions offered by Corda", which "require, for example
//! in the case of a read operation, iterating over each KeyValue pair to
//! find a specific one. This greatly slows down the processing of
//! transactions" (§5.1 reason 1). [`Vault::query_kv`] and
//! [`Vault::query_account`] therefore report how many states were scanned
//! so the chain layer can charge the iteration cost.

use std::collections::HashMap;

use coconut_types::{AccountId, Payload, StateRef, TxId};

use crate::state::{ExecError, StateKey};

/// The contents of an unconsumed Corda state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateData {
    /// A KeyValue-IEL pair.
    Kv {
        /// The key.
        key: u64,
        /// The stored value.
        value: u64,
    },
    /// A BankingApp account with its two balances.
    Account {
        /// The account id.
        account: AccountId,
        /// Checking balance.
        checking: u64,
        /// Saving balance.
        saving: u64,
    },
    /// An opaque marker state (used by DoNothing flows).
    Marker,
}

/// The result of a vault query: what was found and how much of the vault
/// had to be scanned to find it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaultQuery {
    /// The matching state, if any.
    pub found: Option<(StateRef, StateData)>,
    /// Number of states inspected (linear scan; equals the vault size on a
    /// miss).
    pub scanned: usize,
}

/// A transaction built by a Corda flow: states to consume, states to
/// produce, and the scan work performed while resolving them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CordaTx {
    /// Input state references (checked by the notary for double-spends).
    pub inputs: Vec<StateRef>,
    /// Output states to add to the vault on finality.
    pub outputs: Vec<StateData>,
    /// States scanned while building the transaction (drives CPU cost).
    pub scanned: usize,
    /// The value returned by a read-style flow (`Get`/`Balance`).
    pub value: Option<u64>,
}

/// The vault of unconsumed states, ordered by insertion (scan order).
///
/// # Example
///
/// ```
/// use coconut_iel::vault::{StateData, Vault};
/// use coconut_types::{ClientId, Payload, ThreadId, TxId};
///
/// let mut vault = Vault::new();
/// let set = vault.build_tx(&Payload::key_value_set(1, 10)).unwrap();
/// vault.commit(TxId::new(ClientId(0), 1), &set);
///
/// let get = vault.build_tx(&Payload::key_value_get(1)).unwrap();
/// assert_eq!(get.value, Some(10));
/// assert_eq!(get.scanned, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Vault {
    states: HashMap<StateRef, StateData>,
    /// Insertion-ordered refs; consumed entries are tombstoned as `None`
    /// and compacted periodically.
    order: Vec<Option<StateRef>>,
    live: usize,
}

impl Vault {
    /// Creates an empty vault.
    pub fn new() -> Self {
        Vault::default()
    }

    /// Number of unconsumed states.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no states are unconsumed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Linearly scans for the first unconsumed state matching `pred`,
    /// counting scanned entries.
    pub fn scan<F>(&self, mut pred: F) -> VaultQuery
    where
        F: FnMut(&StateData) -> bool,
    {
        let mut scanned = 0;
        for slot in &self.order {
            let Some(r) = slot else { continue };
            scanned += 1;
            if let Some(data) = self.states.get(r) {
                if pred(data) {
                    return VaultQuery {
                        found: Some((*r, *data)),
                        scanned,
                    };
                }
            }
        }
        VaultQuery {
            found: None,
            scanned,
        }
    }

    /// Finds the KeyValue state for `key` (linear scan).
    pub fn query_kv(&self, key: u64) -> VaultQuery {
        self.scan(|d| matches!(d, StateData::Kv { key: k, .. } if *k == key))
    }

    /// Finds the account state for `account` (linear scan).
    pub fn query_account(&self, account: AccountId) -> VaultQuery {
        self.scan(|d| matches!(d, StateData::Account { account: a, .. } if *a == account))
    }

    /// Builds a Corda transaction for `payload` against the current vault:
    /// resolves inputs by scanning, computes outputs, and reports the scan
    /// work.
    ///
    /// # Errors
    ///
    /// Fails when a read misses ([`ExecError::NotFound`]), an account
    /// already exists, or a payment overdraws — mirroring
    /// [`WorldState::apply`](crate::WorldState::apply).
    pub fn build_tx(&self, payload: &Payload) -> Result<CordaTx, ExecError> {
        match *payload {
            Payload::DoNothing => Ok(CordaTx {
                inputs: vec![],
                outputs: vec![StateData::Marker],
                scanned: 0,
                value: None,
            }),
            Payload::KeyValueSet { key, value } => Ok(CordaTx {
                inputs: vec![],
                outputs: vec![StateData::Kv { key, value }],
                scanned: 0,
                value: None,
            }),
            Payload::KeyValueGet { key } => {
                let q = self.query_kv(key);
                match q.found {
                    Some((_, StateData::Kv { value, .. })) => Ok(CordaTx {
                        inputs: vec![],
                        outputs: vec![],
                        scanned: q.scanned,
                        value: Some(value),
                    }),
                    _ => Err(ExecError::NotFound(StateKey::Kv(key))),
                }
            }
            Payload::CreateAccount {
                account,
                checking,
                saving,
            } => {
                let q = self.query_account(account);
                if q.found.is_some() {
                    return Err(ExecError::AlreadyExists(account));
                }
                Ok(CordaTx {
                    inputs: vec![],
                    outputs: vec![StateData::Account {
                        account,
                        checking,
                        saving,
                    }],
                    // CreateAccount must check for duplicates, but the
                    // vault scan short-circuits on a miss only after a full
                    // pass; the paper still groups it with the "no read"
                    // benchmarks because no *state resolution* happens.
                    scanned: 0,
                    value: None,
                })
            }
            Payload::SendPayment { from, to, amount } => {
                let qf = self.query_account(from);
                let Some((
                    from_ref,
                    StateData::Account {
                        checking: fc,
                        saving: fs,
                        ..
                    },
                )) = qf.found
                else {
                    return Err(ExecError::NotFound(StateKey::Checking(from)));
                };
                let qt = self.query_account(to);
                let Some((
                    to_ref,
                    StateData::Account {
                        checking: tc,
                        saving: ts,
                        ..
                    },
                )) = qt.found
                else {
                    return Err(ExecError::NotFound(StateKey::Checking(to)));
                };
                if fc < amount {
                    return Err(ExecError::InsufficientFunds {
                        account: from,
                        balance: fc,
                        requested: amount,
                    });
                }
                Ok(CordaTx {
                    inputs: vec![from_ref, to_ref],
                    outputs: vec![
                        StateData::Account {
                            account: from,
                            checking: fc - amount,
                            saving: fs,
                        },
                        StateData::Account {
                            account: to,
                            checking: tc + amount,
                            saving: ts,
                        },
                    ],
                    scanned: qf.scanned + qt.scanned,
                    value: None,
                })
            }
            Payload::Balance { account } => {
                let q = self.query_account(account);
                match q.found {
                    Some((
                        _,
                        StateData::Account {
                            checking, saving, ..
                        },
                    )) => Ok(CordaTx {
                        inputs: vec![],
                        outputs: vec![],
                        scanned: q.scanned,
                        value: Some(checking + saving),
                    }),
                    _ => Err(ExecError::NotFound(StateKey::Checking(account))),
                }
            }
            Payload::TransactSavings { account, amount } => {
                let q = self.query_account(account);
                let Some((
                    r,
                    StateData::Account {
                        checking, saving, ..
                    },
                )) = q.found
                else {
                    return Err(ExecError::NotFound(StateKey::Checking(account)));
                };
                if checking < amount {
                    return Err(ExecError::InsufficientFunds {
                        account,
                        balance: checking,
                        requested: amount,
                    });
                }
                Ok(CordaTx {
                    inputs: vec![r],
                    outputs: vec![StateData::Account {
                        account,
                        checking: checking - amount,
                        saving: saving + amount,
                    }],
                    scanned: q.scanned,
                    value: None,
                })
            }
            Payload::DepositChecking { account, amount } => {
                let q = self.query_account(account);
                let Some((
                    r,
                    StateData::Account {
                        checking, saving, ..
                    },
                )) = q.found
                else {
                    return Err(ExecError::NotFound(StateKey::Checking(account)));
                };
                if saving < amount {
                    return Err(ExecError::InsufficientFunds {
                        account,
                        balance: saving,
                        requested: amount,
                    });
                }
                Ok(CordaTx {
                    inputs: vec![r],
                    outputs: vec![StateData::Account {
                        account,
                        checking: checking + amount,
                        saving: saving - amount,
                    }],
                    scanned: q.scanned,
                    value: None,
                })
            }
            Payload::WriteCheck { from, to, amount } => {
                let qf = self.query_account(from);
                let Some((
                    from_ref,
                    StateData::Account {
                        checking: fc,
                        saving: fs,
                        ..
                    },
                )) = qf.found
                else {
                    return Err(ExecError::NotFound(StateKey::Checking(from)));
                };
                let qt = self.query_account(to);
                let Some((
                    to_ref,
                    StateData::Account {
                        checking: tc,
                        saving: ts,
                        ..
                    },
                )) = qt.found
                else {
                    return Err(ExecError::NotFound(StateKey::Checking(to)));
                };
                if fc < amount {
                    return Err(ExecError::InsufficientFunds {
                        account: from,
                        balance: fc,
                        requested: amount,
                    });
                }
                if from == to {
                    // Self-transfer: nothing moves; reissue the state as-is.
                    return Ok(CordaTx {
                        inputs: vec![from_ref],
                        outputs: vec![StateData::Account {
                            account: from,
                            checking: fc,
                            saving: fs,
                        }],
                        scanned: qf.scanned + qt.scanned,
                        value: None,
                    });
                }
                Ok(CordaTx {
                    inputs: vec![from_ref, to_ref],
                    outputs: vec![
                        StateData::Account {
                            account: from,
                            checking: fc - amount,
                            saving: fs,
                        },
                        StateData::Account {
                            account: to,
                            checking: tc + amount,
                            saving: ts,
                        },
                    ],
                    scanned: qf.scanned + qt.scanned,
                    value: None,
                })
            }
            Payload::Amalgamate { from, to } => {
                let qf = self.query_account(from);
                let Some((
                    from_ref,
                    StateData::Account {
                        checking: fc,
                        saving: fs,
                        ..
                    },
                )) = qf.found
                else {
                    return Err(ExecError::NotFound(StateKey::Checking(from)));
                };
                let qt = self.query_account(to);
                let Some((
                    to_ref,
                    StateData::Account {
                        checking: tc,
                        saving: ts,
                        ..
                    },
                )) = qt.found
                else {
                    return Err(ExecError::NotFound(StateKey::Checking(to)));
                };
                if from == to {
                    return Ok(CordaTx {
                        inputs: vec![from_ref],
                        outputs: vec![StateData::Account {
                            account: from,
                            checking: fc,
                            saving: fs,
                        }],
                        scanned: qf.scanned + qt.scanned,
                        value: None,
                    });
                }
                Ok(CordaTx {
                    inputs: vec![from_ref, to_ref],
                    outputs: vec![
                        StateData::Account {
                            account: from,
                            checking: 0,
                            saving: 0,
                        },
                        StateData::Account {
                            account: to,
                            checking: tc + fc + fs,
                            saving: ts,
                        },
                    ],
                    scanned: qf.scanned + qt.scanned,
                    value: None,
                })
            }
        }
    }

    /// Snapshots the unconsumed account and KeyValue states as a
    /// [`LedgerState`](crate::LedgerState) for workload invariant checks.
    pub fn ledger_state(&self) -> crate::LedgerState {
        let mut accounts = HashMap::new();
        let mut kv = HashMap::new();
        for data in self.states.values() {
            match *data {
                StateData::Account {
                    account,
                    checking,
                    saving,
                } => {
                    accounts.insert(account, (checking, saving));
                }
                StateData::Kv { key, value } => {
                    kv.insert(key, value);
                }
                StateData::Marker => {}
            }
        }
        crate::LedgerState::from_maps(accounts, kv)
    }

    /// Commits a notarized transaction: consumes its inputs and adds its
    /// outputs as new unconsumed states referenced by `tx`.
    ///
    /// Returns `false` (committing nothing) if any input was already
    /// consumed — callers should have notarized first, so `false` signals a
    /// logic error upstream.
    pub fn commit(&mut self, tx: TxId, corda_tx: &CordaTx) -> bool {
        if corda_tx.inputs.iter().any(|r| !self.states.contains_key(r)) {
            return false;
        }
        for r in &corda_tx.inputs {
            self.states.remove(r);
            self.live -= 1;
            // Tombstone in the scan order (compact when half dead).
            if let Some(slot) = self.order.iter_mut().find(|s| **s == Some(*r)) {
                *slot = None;
            }
        }
        if self.order.len() > 64 && self.live < self.order.len() / 2 {
            self.order.retain(Option::is_some);
        }
        for (i, data) in corda_tx.outputs.iter().enumerate() {
            let r = StateRef::new(tx, i as u32);
            self.states.insert(r, *data);
            self.order.push(Some(r));
            self.live += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_types::ClientId;

    fn tx(seq: u64) -> TxId {
        TxId::new(ClientId(0), seq)
    }

    #[test]
    fn set_then_get_round_trips() {
        let mut v = Vault::new();
        let set = v.build_tx(&Payload::key_value_set(5, 55)).unwrap();
        assert!(v.commit(tx(1), &set));
        let get = v.build_tx(&Payload::key_value_get(5)).unwrap();
        assert_eq!(get.value, Some(55));
        assert!(get.inputs.is_empty());
    }

    #[test]
    fn get_scans_linearly() {
        let mut v = Vault::new();
        for k in 0..100 {
            let set = v.build_tx(&Payload::key_value_set(k, k)).unwrap();
            v.commit(tx(k), &set);
        }
        // The last-inserted key requires scanning the whole vault.
        let last = v.build_tx(&Payload::key_value_get(99)).unwrap();
        assert_eq!(last.scanned, 100);
        let first = v.build_tx(&Payload::key_value_get(0)).unwrap();
        assert_eq!(first.scanned, 1);
    }

    #[test]
    fn get_missing_key_scans_everything_and_fails() {
        let mut v = Vault::new();
        for k in 0..10 {
            let set = v.build_tx(&Payload::key_value_set(k, k)).unwrap();
            v.commit(tx(k), &set);
        }
        let err = v.build_tx(&Payload::key_value_get(999)).unwrap_err();
        assert!(matches!(err, ExecError::NotFound(_)));
    }

    #[test]
    fn payment_consumes_and_produces_account_states() {
        let mut v = Vault::new();
        let a = v
            .build_tx(&Payload::create_account(AccountId(1), 100, 0))
            .unwrap();
        v.commit(tx(1), &a);
        let b = v
            .build_tx(&Payload::create_account(AccountId(2), 100, 0))
            .unwrap();
        v.commit(tx(2), &b);
        assert_eq!(v.len(), 2);

        let pay = v
            .build_tx(&Payload::send_payment(AccountId(1), AccountId(2), 25))
            .unwrap();
        assert_eq!(pay.inputs.len(), 2);
        assert_eq!(pay.outputs.len(), 2);
        assert!(v.commit(tx(3), &pay));
        assert_eq!(v.len(), 2, "two consumed, two produced");

        let bal = v.build_tx(&Payload::balance(AccountId(2))).unwrap();
        assert_eq!(bal.value, Some(125));
    }

    #[test]
    fn double_commit_of_same_inputs_fails() {
        let mut v = Vault::new();
        let a = v
            .build_tx(&Payload::create_account(AccountId(1), 100, 0))
            .unwrap();
        v.commit(tx(1), &a);
        let b = v
            .build_tx(&Payload::create_account(AccountId(2), 0, 0))
            .unwrap();
        v.commit(tx(2), &b);
        let pay = v
            .build_tx(&Payload::send_payment(AccountId(1), AccountId(2), 1))
            .unwrap();
        assert!(v.commit(tx(3), &pay));
        // Committing the same built tx again must fail: inputs are spent.
        assert!(!v.commit(tx(4), &pay));
    }

    #[test]
    fn overdraft_and_missing_accounts_fail() {
        let mut v = Vault::new();
        let a = v
            .build_tx(&Payload::create_account(AccountId(1), 5, 0))
            .unwrap();
        v.commit(tx(1), &a);
        assert!(matches!(
            v.build_tx(&Payload::send_payment(AccountId(1), AccountId(9), 1)),
            Err(ExecError::NotFound(_))
        ));
        let b = v
            .build_tx(&Payload::create_account(AccountId(2), 5, 0))
            .unwrap();
        v.commit(tx(2), &b);
        assert!(matches!(
            v.build_tx(&Payload::send_payment(AccountId(1), AccountId(2), 6)),
            Err(ExecError::InsufficientFunds { .. })
        ));
    }

    #[test]
    fn duplicate_account_rejected() {
        let mut v = Vault::new();
        let a = v
            .build_tx(&Payload::create_account(AccountId(1), 1, 1))
            .unwrap();
        v.commit(tx(1), &a);
        assert!(matches!(
            v.build_tx(&Payload::create_account(AccountId(1), 2, 2)),
            Err(ExecError::AlreadyExists(_))
        ));
    }

    #[test]
    fn do_nothing_produces_marker() {
        let mut v = Vault::new();
        let d = v.build_tx(&Payload::DoNothing).unwrap();
        assert_eq!(d.outputs, vec![StateData::Marker]);
        assert_eq!(d.scanned, 0);
        v.commit(tx(1), &d);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn compaction_preserves_scan_results() {
        let mut v = Vault::new();
        // Create many accounts, then pay in a chain (consuming states) to
        // force tombstones and compaction.
        for n in 0..200u64 {
            let c = v
                .build_tx(&Payload::create_account(AccountId(n), 1000, 0))
                .unwrap();
            v.commit(tx(n), &c);
        }
        for n in 0..199u64 {
            let p = v
                .build_tx(&Payload::send_payment(AccountId(n), AccountId(n + 1), 1))
                .unwrap();
            assert!(v.commit(tx(1000 + n), &p));
        }
        assert_eq!(v.len(), 200);
        // Every account must still be findable with a correct balance sum.
        let total: u64 = (0..200u64)
            .map(|n| {
                v.build_tx(&Payload::balance(AccountId(n)))
                    .unwrap()
                    .value
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 200 * 1000);
    }

    #[test]
    fn smallbank_ops_consume_and_conserve() {
        let mut v = Vault::new();
        for a in 1..=2u64 {
            let c = v
                .build_tx(&Payload::create_account(AccountId(a), 100, 50))
                .unwrap();
            v.commit(tx(a), &c);
        }
        let ts = v
            .build_tx(&Payload::transact_savings(AccountId(1), 30))
            .unwrap();
        assert_eq!(ts.inputs.len(), 1);
        assert!(v.commit(tx(10), &ts));
        let wc = v
            .build_tx(&Payload::write_check(AccountId(1), AccountId(2), 20))
            .unwrap();
        assert_eq!(wc.inputs.len(), 2);
        assert!(v.commit(tx(11), &wc));
        let am = v
            .build_tx(&Payload::amalgamate(AccountId(2), AccountId(1)))
            .unwrap();
        assert!(v.commit(tx(12), &am));
        let ledger = v.ledger_state();
        assert_eq!(ledger.total_balance(), 300, "Smallbank ops conserve money");
        assert_eq!(ledger.balance(AccountId(2)), Some((0, 0)));
        // Self-directed ops reissue the state without minting.
        let self_wc = v
            .build_tx(&Payload::write_check(AccountId(1), AccountId(1), 5))
            .unwrap();
        assert!(v.commit(tx(13), &self_wc));
        assert_eq!(v.ledger_state().total_balance(), 300);
    }

    #[test]
    fn vault_money_conserved() {
        // Seeded randomized sweep (formerly a proptest).
        let mut gen = coconut_types::SimRng::seed_from_u64(21);
        for case in 0..48 {
            let n = gen.gen_range_inclusive(0, 39) as usize;
            let mut v = Vault::new();
            for a in 0..6u64 {
                let c = v
                    .build_tx(&Payload::create_account(AccountId(a), 100, 0))
                    .unwrap();
                v.commit(tx(a), &c);
            }
            let mut seq = 100;
            for _ in 0..n {
                let from = gen.gen_range_inclusive(0, 5);
                let to = gen.gen_range_inclusive(0, 5);
                let amount = gen.gen_range_inclusive(1, 29);
                if from == to {
                    continue;
                }
                if let Ok(p) = v.build_tx(&Payload::send_payment(
                    AccountId(from),
                    AccountId(to),
                    amount,
                )) {
                    v.commit(tx(seq), &p);
                    seq += 1;
                }
            }
            let total: u64 = (0..6u64)
                .map(|a| {
                    v.build_tx(&Payload::balance(AccountId(a)))
                        .unwrap()
                        .value
                        .unwrap()
                })
                .sum();
            assert_eq!(total, 600, "case {case}");
        }
    }
}
