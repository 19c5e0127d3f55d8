//! Versioned world state for order-execute systems.

use std::collections::HashMap;

use coconut_types::{AccountId, MixMap, Payload};

/// A key into the world state: either a KeyValue-IEL key or one of a
/// banking account's two balances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StateKey {
    /// A KeyValue-IEL entry.
    Kv(u64),
    /// The checking balance of an account.
    Checking(AccountId),
    /// The saving balance of an account.
    Saving(AccountId),
}

/// Why an execution failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecError {
    /// A read targeted a key or account that does not exist.
    NotFound(StateKey),
    /// `SendPayment` tried to move more than the payer's checking balance.
    InsufficientFunds {
        /// The overdrawn account.
        account: AccountId,
        /// Its balance at execution time.
        balance: u64,
        /// The attempted payment.
        requested: u64,
    },
    /// `CreateAccount` hit an account id that already exists.
    AlreadyExists(AccountId),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NotFound(k) => write!(f, "state not found: {k:?}"),
            ExecError::InsufficientFunds {
                account,
                balance,
                requested,
            } => write!(
                f,
                "insufficient funds on {account}: balance {balance}, requested {requested}"
            ),
            ExecError::AlreadyExists(a) => write!(f, "account already exists: {a}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// What an execution touched: used for cost accounting (the chain layer
/// charges CPU per read/write) and conflict analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecEffect {
    /// Keys read, with the version observed.
    pub reads: Vec<(StateKey, u64)>,
    /// Keys written (version bumped).
    pub writes: Vec<StateKey>,
    /// The value produced by a read-style call (`Get`/`Balance`).
    pub value: Option<u64>,
}

/// Versioned world state: every entry carries a monotonically increasing
/// version so that execute-order-validate systems can detect stale reads.
///
/// # Example
///
/// ```
/// use coconut_iel::WorldState;
/// use coconut_types::{AccountId, Payload};
///
/// let mut state = WorldState::new();
/// state.apply(&Payload::create_account(AccountId(1), 100, 50))?;
/// state.apply(&Payload::create_account(AccountId(2), 100, 50))?;
/// state.apply(&Payload::send_payment(AccountId(1), AccountId(2), 30))?;
/// let effect = state.apply(&Payload::balance(AccountId(2)))?;
/// assert_eq!(effect.value, Some(130 + 50));
/// # Ok::<(), coconut_iel::ExecError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct WorldState {
    values: MixMap<StateKey, u64>,
    versions: MixMap<StateKey, u64>,
    applied: u64,
    failed: u64,
}

impl WorldState {
    /// Creates an empty world state.
    pub fn new() -> Self {
        WorldState::default()
    }

    /// Number of successful executions so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Number of failed executions so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Number of distinct keys in the state.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no key has ever been written.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The current version of `key` (0 if never written).
    pub fn version(&self, key: &StateKey) -> u64 {
        self.versions.get(key).copied().unwrap_or(0)
    }

    /// The current value of `key`, if present.
    pub fn get(&self, key: &StateKey) -> Option<u64> {
        self.values.get(key).copied()
    }

    /// Writes `value` under `key`, bumping its version, without going
    /// through a payload. This is the commit path used by
    /// execute-order-validate systems when applying a validated write set.
    pub fn raw_write(&mut self, key: StateKey, value: u64) {
        self.values.insert(key, value);
        *self.versions.entry(key).or_insert(0) += 1;
    }

    fn write(&mut self, key: StateKey, value: u64, effect: &mut ExecEffect) {
        self.values.insert(key, value);
        *self.versions.entry(key).or_insert(0) += 1;
        effect.writes.push(key);
    }

    fn read(&self, key: StateKey, effect: &mut ExecEffect) -> Result<u64, ExecError> {
        effect.reads.push((key, self.version(&key)));
        self.values
            .get(&key)
            .copied()
            .ok_or(ExecError::NotFound(key))
    }

    /// Executes `payload` against the state (the order-execute path).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when a read misses, an account already exists,
    /// or a payment overdraws; the state is unchanged on error.
    pub fn apply(&mut self, payload: &Payload) -> Result<ExecEffect, ExecError> {
        let mut effect = ExecEffect::default();
        let result = self.apply_inner(payload, &mut effect);
        match result {
            Ok(()) => {
                self.applied += 1;
                Ok(effect)
            }
            Err(e) => {
                self.failed += 1;
                Err(e)
            }
        }
    }

    fn apply_inner(&mut self, payload: &Payload, effect: &mut ExecEffect) -> Result<(), ExecError> {
        match *payload {
            Payload::DoNothing => Ok(()),
            Payload::KeyValueSet { key, value } => {
                self.write(StateKey::Kv(key), value, effect);
                Ok(())
            }
            Payload::KeyValueGet { key } => {
                let v = self.read(StateKey::Kv(key), effect)?;
                effect.value = Some(v);
                Ok(())
            }
            Payload::CreateAccount {
                account,
                checking,
                saving,
            } => {
                let key = StateKey::Checking(account);
                effect.reads.push((key, self.version(&key)));
                if self.values.contains_key(&key) {
                    return Err(ExecError::AlreadyExists(account));
                }
                self.write(key, checking, effect);
                self.write(StateKey::Saving(account), saving, effect);
                Ok(())
            }
            Payload::SendPayment { from, to, amount } => {
                let from_balance = self.read(StateKey::Checking(from), effect)?;
                let to_balance = self.read(StateKey::Checking(to), effect)?;
                if from_balance < amount {
                    return Err(ExecError::InsufficientFunds {
                        account: from,
                        balance: from_balance,
                        requested: amount,
                    });
                }
                self.write(StateKey::Checking(from), from_balance - amount, effect);
                self.write(StateKey::Checking(to), to_balance + amount, effect);
                Ok(())
            }
            Payload::Balance { account } => {
                let checking = self.read(StateKey::Checking(account), effect)?;
                let saving = self.read(StateKey::Saving(account), effect)?;
                effect.value = Some(checking + saving);
                Ok(())
            }
            Payload::TransactSavings { account, amount } => {
                let checking = self.read(StateKey::Checking(account), effect)?;
                let saving = self.read(StateKey::Saving(account), effect)?;
                if checking < amount {
                    return Err(ExecError::InsufficientFunds {
                        account,
                        balance: checking,
                        requested: amount,
                    });
                }
                self.write(StateKey::Checking(account), checking - amount, effect);
                self.write(StateKey::Saving(account), saving + amount, effect);
                Ok(())
            }
            Payload::DepositChecking { account, amount } => {
                let checking = self.read(StateKey::Checking(account), effect)?;
                let saving = self.read(StateKey::Saving(account), effect)?;
                if saving < amount {
                    return Err(ExecError::InsufficientFunds {
                        account,
                        balance: saving,
                        requested: amount,
                    });
                }
                self.write(StateKey::Checking(account), checking + amount, effect);
                self.write(StateKey::Saving(account), saving - amount, effect);
                Ok(())
            }
            Payload::WriteCheck { from, to, amount } => {
                // Smallbank reads *both* of the payer's balances before
                // deciding, which is what widens the MVCC read set.
                let from_checking = self.read(StateKey::Checking(from), effect)?;
                let _from_saving = self.read(StateKey::Saving(from), effect)?;
                let to_checking = self.read(StateKey::Checking(to), effect)?;
                if from_checking < amount {
                    return Err(ExecError::InsufficientFunds {
                        account: from,
                        balance: from_checking,
                        requested: amount,
                    });
                }
                // A self-check is a read-only no-op; transferring through
                // stale intermediate values would mint money.
                if from != to {
                    self.write(StateKey::Checking(from), from_checking - amount, effect);
                    self.write(StateKey::Checking(to), to_checking + amount, effect);
                }
                Ok(())
            }
            Payload::Amalgamate { from, to } => {
                let from_checking = self.read(StateKey::Checking(from), effect)?;
                let from_saving = self.read(StateKey::Saving(from), effect)?;
                let to_checking = self.read(StateKey::Checking(to), effect)?;
                if from != to {
                    self.write(StateKey::Checking(from), 0, effect);
                    self.write(StateKey::Saving(from), 0, effect);
                    self.write(
                        StateKey::Checking(to),
                        to_checking + from_checking + from_saving,
                        effect,
                    );
                }
                Ok(())
            }
        }
    }
}

/// A system-agnostic snapshot of final ledger contents.
///
/// Workload `verify` hooks run against this view rather than against any
/// per-system state representation: the order-execute chains build it from
/// their [`WorldState`], Corda from its vault, so one invariant check (say,
/// Smallbank's conserved total balance) covers all seven systems.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerState {
    /// `(account, checking, saving)`, sorted by account id.
    accounts: Vec<(AccountId, u64, u64)>,
    /// `(key, value)` KeyValue entries, sorted by key.
    kv: Vec<(u64, u64)>,
}

impl LedgerState {
    /// Builds a snapshot from unordered account and key/value maps.
    pub fn from_maps(accounts: HashMap<AccountId, (u64, u64)>, kv: HashMap<u64, u64>) -> Self {
        let mut accounts: Vec<(AccountId, u64, u64)> =
            accounts.into_iter().map(|(a, (c, s))| (a, c, s)).collect();
        accounts.sort_unstable_by_key(|&(a, _, _)| a);
        let mut kv: Vec<(u64, u64)> = kv.into_iter().collect();
        kv.sort_unstable_by_key(|&(k, _)| k);
        LedgerState { accounts, kv }
    }

    /// Snapshots a [`WorldState`] (the order-execute systems' view).
    pub fn of_world(state: &WorldState) -> Self {
        let mut accounts: HashMap<AccountId, (u64, u64)> = HashMap::new();
        let mut kv = HashMap::new();
        for (&key, &value) in &state.values {
            match key {
                StateKey::Kv(k) => {
                    kv.insert(k, value);
                }
                StateKey::Checking(a) => {
                    accounts.entry(a).or_insert((0, 0)).0 = value;
                }
                StateKey::Saving(a) => {
                    accounts.entry(a).or_insert((0, 0)).1 = value;
                }
            }
        }
        LedgerState::from_maps(accounts, kv)
    }

    /// All accounts as `(account, checking, saving)`, sorted by id.
    pub fn accounts(&self) -> &[(AccountId, u64, u64)] {
        &self.accounts
    }

    /// The `(checking, saving)` balances of `account`, if present.
    pub fn balance(&self, account: AccountId) -> Option<(u64, u64)> {
        self.accounts
            .binary_search_by_key(&account, |&(a, _, _)| a)
            .ok()
            .map(|i| (self.accounts[i].1, self.accounts[i].2))
    }

    /// The value stored under KeyValue key `key`, if present.
    pub fn kv_get(&self, key: u64) -> Option<u64> {
        self.kv
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.kv[i].1)
    }

    /// Number of KeyValue entries.
    pub fn kv_count(&self) -> usize {
        self.kv.len()
    }

    /// Sum of every account's checking + saving balance — Smallbank's
    /// conserved quantity.
    pub fn total_balance(&self) -> u64 {
        self.accounts.iter().map(|&(_, c, s)| c + s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn do_nothing_touches_nothing() {
        let mut s = WorldState::new();
        let e = s.apply(&Payload::DoNothing).unwrap();
        assert!(e.reads.is_empty() && e.writes.is_empty());
        assert!(s.is_empty());
        assert_eq!(s.applied(), 1);
    }

    #[test]
    fn kv_set_then_get() {
        let mut s = WorldState::new();
        s.apply(&Payload::key_value_set(7, 42)).unwrap();
        let e = s.apply(&Payload::key_value_get(7)).unwrap();
        assert_eq!(e.value, Some(42));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn kv_get_missing_key_fails() {
        let mut s = WorldState::new();
        let err = s.apply(&Payload::key_value_get(9)).unwrap_err();
        assert_eq!(err, ExecError::NotFound(StateKey::Kv(9)));
        assert_eq!(s.failed(), 1);
    }

    #[test]
    fn versions_bump_on_every_write() {
        let mut s = WorldState::new();
        let k = StateKey::Kv(1);
        assert_eq!(s.version(&k), 0);
        s.apply(&Payload::key_value_set(1, 10)).unwrap();
        assert_eq!(s.version(&k), 1);
        s.apply(&Payload::key_value_set(1, 11)).unwrap();
        assert_eq!(s.version(&k), 2);
        assert_eq!(s.get(&k), Some(11));
    }

    #[test]
    fn create_account_sets_both_balances() {
        let mut s = WorldState::new();
        let e = s
            .apply(&Payload::create_account(AccountId(1), 1000, 500))
            .unwrap();
        assert_eq!(e.writes.len(), 2);
        assert_eq!(s.get(&StateKey::Checking(AccountId(1))), Some(1000));
        assert_eq!(s.get(&StateKey::Saving(AccountId(1))), Some(500));
    }

    #[test]
    fn duplicate_create_account_fails() {
        let mut s = WorldState::new();
        s.apply(&Payload::create_account(AccountId(1), 1, 1))
            .unwrap();
        let err = s
            .apply(&Payload::create_account(AccountId(1), 2, 2))
            .unwrap_err();
        assert_eq!(err, ExecError::AlreadyExists(AccountId(1)));
        // Balance unchanged:
        assert_eq!(s.get(&StateKey::Checking(AccountId(1))), Some(1));
    }

    #[test]
    fn send_payment_moves_checking_money() {
        let mut s = WorldState::new();
        s.apply(&Payload::create_account(AccountId(1), 100, 0))
            .unwrap();
        s.apply(&Payload::create_account(AccountId(2), 100, 0))
            .unwrap();
        let e = s
            .apply(&Payload::send_payment(AccountId(1), AccountId(2), 40))
            .unwrap();
        assert_eq!(e.reads.len(), 2);
        assert_eq!(e.writes.len(), 2);
        assert_eq!(s.get(&StateKey::Checking(AccountId(1))), Some(60));
        assert_eq!(s.get(&StateKey::Checking(AccountId(2))), Some(140));
    }

    #[test]
    fn overdraft_rejected_without_side_effects() {
        let mut s = WorldState::new();
        s.apply(&Payload::create_account(AccountId(1), 10, 0))
            .unwrap();
        s.apply(&Payload::create_account(AccountId(2), 10, 0))
            .unwrap();
        let err = s
            .apply(&Payload::send_payment(AccountId(1), AccountId(2), 11))
            .unwrap_err();
        assert!(
            matches!(err, ExecError::InsufficientFunds { account, .. } if account == AccountId(1))
        );
        assert_eq!(s.get(&StateKey::Checking(AccountId(1))), Some(10));
        assert_eq!(s.get(&StateKey::Checking(AccountId(2))), Some(10));
    }

    #[test]
    fn payment_to_missing_account_fails() {
        let mut s = WorldState::new();
        s.apply(&Payload::create_account(AccountId(1), 10, 0))
            .unwrap();
        let err = s
            .apply(&Payload::send_payment(AccountId(1), AccountId(9), 1))
            .unwrap_err();
        assert_eq!(err, ExecError::NotFound(StateKey::Checking(AccountId(9))));
    }

    #[test]
    fn balance_sums_checking_and_saving() {
        let mut s = WorldState::new();
        s.apply(&Payload::create_account(AccountId(3), 70, 30))
            .unwrap();
        let e = s.apply(&Payload::balance(AccountId(3))).unwrap();
        assert_eq!(e.value, Some(100));
        assert_eq!(e.reads.len(), 2);
        assert!(e.writes.is_empty());
    }

    #[test]
    fn chained_payments_mirror_paper_workload() {
        // The paper's SendPayment sends from account n to account n+1.
        let mut s = WorldState::new();
        for n in 0..10u64 {
            s.apply(&Payload::create_account(AccountId(n), 100, 0))
                .unwrap();
        }
        for n in 0..9u64 {
            s.apply(&Payload::send_payment(AccountId(n), AccountId(n + 1), 50))
                .unwrap();
        }
        // Account 0 paid 50 and received nothing; the last received only.
        assert_eq!(s.get(&StateKey::Checking(AccountId(0))), Some(50));
        assert_eq!(s.get(&StateKey::Checking(AccountId(9))), Some(150));
        // Money is conserved:
        let total: u64 = (0..10u64)
            .map(|n| s.get(&StateKey::Checking(AccountId(n))).unwrap())
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn money_is_conserved_under_random_payments() {
        // Seeded randomized sweep (formerly a proptest).
        let mut gen = coconut_types::SimRng::seed_from_u64(11);
        for case in 0..64 {
            let n = gen.gen_range_inclusive(0, 63) as usize;
            let mut s = WorldState::new();
            for a in 0..8u64 {
                s.apply(&Payload::create_account(AccountId(a), 100, 0))
                    .unwrap();
            }
            for _ in 0..n {
                let from = gen.gen_range_inclusive(0, 7);
                let to = gen.gen_range_inclusive(0, 7);
                let amount = gen.gen_range_inclusive(1, 49);
                if from != to {
                    let _ = s.apply(&Payload::send_payment(
                        AccountId(from),
                        AccountId(to),
                        amount,
                    ));
                }
            }
            let total: u64 = (0..8u64)
                .map(|a| s.get(&StateKey::Checking(AccountId(a))).unwrap())
                .sum();
            assert_eq!(total, 800, "case {case}");
        }
    }

    fn smallbank_pair(s: &mut WorldState) {
        s.apply(&Payload::create_account(AccountId(1), 100, 50))
            .unwrap();
        s.apply(&Payload::create_account(AccountId(2), 100, 50))
            .unwrap();
    }

    fn total(s: &WorldState) -> u64 {
        LedgerState::of_world(s).total_balance()
    }

    #[test]
    fn transact_savings_moves_checking_into_saving() {
        let mut s = WorldState::new();
        smallbank_pair(&mut s);
        let e = s
            .apply(&Payload::transact_savings(AccountId(1), 30))
            .unwrap();
        assert_eq!(e.reads.len(), 2);
        assert_eq!(s.get(&StateKey::Checking(AccountId(1))), Some(70));
        assert_eq!(s.get(&StateKey::Saving(AccountId(1))), Some(80));
        assert_eq!(total(&s), 300);
        // Overdrawing the checking balance fails without side effects.
        let err = s
            .apply(&Payload::transact_savings(AccountId(1), 1000))
            .unwrap_err();
        assert!(matches!(err, ExecError::InsufficientFunds { .. }));
        assert_eq!(total(&s), 300);
    }

    #[test]
    fn deposit_checking_moves_saving_into_checking() {
        let mut s = WorldState::new();
        smallbank_pair(&mut s);
        s.apply(&Payload::deposit_checking(AccountId(2), 50))
            .unwrap();
        assert_eq!(s.get(&StateKey::Checking(AccountId(2))), Some(150));
        assert_eq!(s.get(&StateKey::Saving(AccountId(2))), Some(0));
        let err = s
            .apply(&Payload::deposit_checking(AccountId(2), 1))
            .unwrap_err();
        assert!(matches!(err, ExecError::InsufficientFunds { .. }));
        assert_eq!(total(&s), 300);
    }

    #[test]
    fn write_check_reads_both_payer_balances() {
        let mut s = WorldState::new();
        smallbank_pair(&mut s);
        let e = s
            .apply(&Payload::write_check(AccountId(1), AccountId(2), 40))
            .unwrap();
        assert_eq!(e.reads.len(), 3, "payer checking+saving, payee checking");
        assert_eq!(s.get(&StateKey::Checking(AccountId(1))), Some(60));
        assert_eq!(s.get(&StateKey::Checking(AccountId(2))), Some(140));
        assert_eq!(total(&s), 300);
        // A self-check conserves money instead of minting it.
        s.apply(&Payload::write_check(AccountId(1), AccountId(1), 10))
            .unwrap();
        assert_eq!(total(&s), 300);
    }

    #[test]
    fn amalgamate_drains_into_checking() {
        let mut s = WorldState::new();
        smallbank_pair(&mut s);
        s.apply(&Payload::amalgamate(AccountId(1), AccountId(2)))
            .unwrap();
        assert_eq!(s.get(&StateKey::Checking(AccountId(1))), Some(0));
        assert_eq!(s.get(&StateKey::Saving(AccountId(1))), Some(0));
        assert_eq!(s.get(&StateKey::Checking(AccountId(2))), Some(250));
        assert_eq!(total(&s), 300);
        let err = s
            .apply(&Payload::amalgamate(AccountId(1), AccountId(9)))
            .unwrap_err();
        assert!(matches!(err, ExecError::NotFound(_)));
        assert_eq!(total(&s), 300);
    }

    #[test]
    fn ledger_state_snapshots_world() {
        let mut s = WorldState::new();
        smallbank_pair(&mut s);
        s.apply(&Payload::key_value_set(7, 42)).unwrap();
        let snap = LedgerState::of_world(&s);
        assert_eq!(snap.accounts().len(), 2);
        assert_eq!(snap.balance(AccountId(1)), Some((100, 50)));
        assert_eq!(snap.balance(AccountId(9)), None);
        assert_eq!(snap.kv_get(7), Some(42));
        assert_eq!(snap.kv_count(), 1);
        assert_eq!(snap.total_balance(), 300);
    }

    #[test]
    fn last_write_wins() {
        let mut gen = coconut_types::SimRng::seed_from_u64(12);
        for _ in 0..32 {
            let n = gen.gen_range_inclusive(1, 31) as usize;
            let values: Vec<u64> = (0..n).map(|_| gen.gen_range_inclusive(0, 999)).collect();
            let mut s = WorldState::new();
            for &v in &values {
                s.apply(&Payload::key_value_set(1, v)).unwrap();
            }
            assert_eq!(s.get(&StateKey::Kv(1)), values.last().copied());
            assert_eq!(s.version(&StateKey::Kv(1)), values.len() as u64);
        }
    }

    #[test]
    fn ledger_state_is_independent_of_write_order() {
        // The world state's maps are unseeded hash maps; a snapshot must
        // not leak their iteration order, whatever order filled them.
        let mut gen = coconut_types::SimRng::seed_from_u64(23);
        for case in 0..16 {
            let n = gen.gen_range_inclusive(1, 600);
            let mut writes: Vec<(StateKey, u64)> = (0..n)
                .flat_map(|i| {
                    let a = AccountId(i * 7 + 1);
                    [
                        (StateKey::Checking(a), i),
                        (StateKey::Saving(a), i + 1),
                        (StateKey::Kv(i * 13), i + 2),
                    ]
                })
                .collect();
            let mut first = WorldState::new();
            for &(k, v) in &writes {
                first.raw_write(k, v);
            }
            gen.shuffle(&mut writes);
            let mut second = WorldState::new();
            for &(k, v) in &writes {
                second.raw_write(k, v);
            }
            let snap = LedgerState::of_world(&first);
            assert_eq!(snap, LedgerState::of_world(&second), "case {case}");
            assert_eq!(snap.accounts().len() as u64, n, "case {case}");
            assert_eq!(snap.kv_count() as u64, n, "case {case}");
        }
    }
}
