//! Workload generation: a pluggable [`Workload`] trait and the payload
//! streams of the paper's three interface execution layers plus the
//! BLOCKBENCH-style Smallbank and YCSB applications.
//!
//! Every generator is deterministic and stateless: payload *i* of workload
//! thread *(client, thread)* is a pure function of those coordinates. This
//! lets the KeyValue-Get benchmark read exactly the keys the preceding
//! KeyValue-Set benchmark wrote (§4.1: benchmarks form units) without any
//! shared state, and it makes the BankingApp-SendPayment benchmark pay from
//! account *n* to account *n + 1* as the paper prescribes — deliberately
//! provoking overwrite conflicts. The trait adds two hooks the pure
//! function cannot express: a [`Workload::preload`] of ledger state to
//! install before the run, and a post-run [`Workload::verify`] invariant
//! over the final [`LedgerState`].

use coconut_iel::LedgerState;
use coconut_types::{AccountId, ClientId, Payload, PayloadKind, SeedDeriver, SeedStream, ThreadId};

use crate::zipf::{unit_from_hash, Zipf};

/// A deterministic, stateless transaction generator: an application under
/// benchmark.
///
/// Implementations must be pure in [`Workload::payload_at`] — the same
/// `(client, thread, seq)` always yields the same payload, across runs,
/// `--jobs` splits, and system subsets — because every byte-invariance
/// guarantee of the campaign goldens rests on it.
///
/// The `Debug` bound lets compiled artifacts that embed a workload (e.g.
/// [`crate::scenario::Timeline`]) stay debuggable.
pub trait Workload: std::fmt::Debug {
    /// A short stable name ("KeyValue-Set", "Smallbank", "YCSB").
    fn name(&self) -> &str;

    /// The payload kinds this workload emits. For the paper's single-kind
    /// benchmark phases this is one kind; mixed workloads list every kind
    /// their stream can produce.
    fn phases(&self) -> &[PayloadKind];

    /// The `seq`-th payload of workload thread `(client, thread)`.
    fn payload_at(&self, client: ClientId, thread: ThreadId, seq: u64) -> Payload;

    /// Payloads to install directly in the system's ledger before the run
    /// (bypassing consensus): account pools, initial keyspace. Defaults to
    /// no preload — the paper's workloads create their own state.
    fn preload(&self) -> Vec<Payload> {
        Vec::new()
    }

    /// Checks a post-run invariant over the committed ledger (e.g.
    /// Smallbank's conserved total balance). Defaults to no invariant.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    fn verify(&self, ledger: &LedgerState) -> Result<(), String> {
        let _ = ledger;
        Ok(())
    }
}

/// Builds a globally unique 64-bit key for `(client, thread, seq)`.
///
/// Bits: `client` in the top 12, `thread` in the next 12, `seq` below —
/// collision-free for any realistic experiment size.
pub fn unique_key(client: ClientId, thread: ThreadId, seq: u64) -> u64 {
    ((client.0 as u64) << 52) | ((thread.0 as u64) << 40) | (seq & 0xFF_FFFF_FFFF)
}

/// The account a workload thread's `seq`-th banking payload refers to.
pub fn account(client: ClientId, thread: ThreadId, seq: u64) -> AccountId {
    AccountId(unique_key(client, thread, seq))
}

/// Opening balance for created checking and saving accounts.
pub const OPENING_BALANCE: u64 = 1_000_000;

/// Workload threads per client; payments interleave across them.
const THREADS: u32 = 4;

/// Accounts per thread that the payment workload cycles over. Payments
/// revisit this bounded pool instead of marching through fresh accounts,
/// so conflicts persist for the whole benchmark — the sustained
/// serializability pressure behind the paper's SendPayment findings.
pub const PAYMENT_POOL: u64 = 64;

/// The `s`-th payment of thread `t` pays from the `((t + s) mod 4)`-th
/// thread's pool account `s mod PAYMENT_POOL` to the *next* account in the
/// client-wide interleaved order. Concurrent threads of one client
/// therefore form payment chains over overlapping accounts — the
/// "account *n* pays account *n + 1*" interference the paper's SendPayment
/// is designed to provoke, across the whole client rather than within
/// isolated per-thread silos.
fn payment_endpoints(client: ClientId, thread: ThreadId, seq: u64) -> (AccountId, AccountId) {
    let idx = seq % PAYMENT_POOL;
    let u = (thread.0 + (seq % THREADS as u64) as u32) % THREADS;
    let from = account(client, ThreadId(u), idx);
    let to = if u + 1 < THREADS {
        account(client, ThreadId(u + 1), idx)
    } else {
        account(client, ThreadId(0), (idx + 1) % PAYMENT_POOL)
    };
    (from, to)
}

/// Payment amount used by BankingApp-SendPayment.
pub const PAYMENT_AMOUNT: u64 = 1;

/// One benchmark phase of the paper's workloads as a [`Workload`] instance.
///
/// [`paper`] builds these, and [`BenchmarkUnit`] groups them into the
/// paper's back-to-back units.
///
/// # Example
///
/// ```
/// use coconut::workload::{paper, Workload};
/// use coconut_types::{ClientId, Payload, PayloadKind, ThreadId};
///
/// let (c, t) = (ClientId(0), ThreadId(1));
/// let set = paper(PayloadKind::KeyValueSet).payload_at(c, t, 7);
/// let get = paper(PayloadKind::KeyValueGet).payload_at(c, t, 7);
/// // The Get benchmark reads what the Set benchmark wrote:
/// match (set, get) {
///     (Payload::KeyValueSet { key: k1, .. }, Payload::KeyValueGet { key: k2 }) => {
///         assert_eq!(k1, k2)
///     }
///     _ => unreachable!(),
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperWorkload {
    kind: PayloadKind,
}

/// The paper workload that emits benchmark `kind`'s payload stream.
pub const fn paper(kind: PayloadKind) -> PaperWorkload {
    PaperWorkload { kind }
}

impl Workload for PaperWorkload {
    fn name(&self) -> &str {
        self.kind.label()
    }

    fn phases(&self) -> &[PayloadKind] {
        std::slice::from_ref(&self.kind)
    }

    fn payload_at(&self, client: ClientId, thread: ThreadId, seq: u64) -> Payload {
        match self.kind {
            PayloadKind::DoNothing => Payload::DoNothing,
            PayloadKind::KeyValueSet => {
                Payload::key_value_set(unique_key(client, thread, seq), seq)
            }
            PayloadKind::KeyValueGet => Payload::key_value_get(unique_key(client, thread, seq)),
            PayloadKind::CreateAccount => Payload::create_account(
                account(client, thread, seq),
                OPENING_BALANCE,
                OPENING_BALANCE,
            ),
            // The paper: "SendPayment sends a payment from account_n to
            // account_{n+1}", which makes concurrent payments interact.
            PayloadKind::SendPayment => {
                let (from, to) = payment_endpoints(client, thread, seq);
                Payload::send_payment(from, to, PAYMENT_AMOUNT)
            }
            PayloadKind::Balance => {
                let (from, _) = payment_endpoints(client, thread, seq);
                Payload::balance(from)
            }
            other => unreachable!("no paper benchmark emits {other:?}"),
        }
    }
}

/// The benchmark units of §4.1: benchmarks that run back-to-back on the
/// *same* deployed system (only clients are re-provisioned in between).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchmarkUnit {
    /// `DoNothing` alone.
    DoNothing,
    /// `KeyValue-Set` followed by `KeyValue-Get`.
    KeyValue,
    /// `CreateAccount`, then `SendPayment`, then `Balance`.
    BankingApp,
}

impl BenchmarkUnit {
    /// All three units in the paper's execution order.
    pub const ALL: [BenchmarkUnit; 3] = [
        BenchmarkUnit::DoNothing,
        BenchmarkUnit::KeyValue,
        BenchmarkUnit::BankingApp,
    ];

    /// The unit's benchmark phases as [`Workload`] instances, in order —
    /// the single source of the phase lists ([`BenchmarkUnit::benchmarks`]
    /// and [`BenchmarkUnit::containing`] both derive from it).
    pub fn workloads(self) -> &'static [PaperWorkload] {
        const DO_NOTHING: [PaperWorkload; 1] = [paper(PayloadKind::DoNothing)];
        const KEY_VALUE: [PaperWorkload; 2] = [
            paper(PayloadKind::KeyValueSet),
            paper(PayloadKind::KeyValueGet),
        ];
        const BANKING_APP: [PaperWorkload; 3] = [
            paper(PayloadKind::CreateAccount),
            paper(PayloadKind::SendPayment),
            paper(PayloadKind::Balance),
        ];
        match self {
            BenchmarkUnit::DoNothing => &DO_NOTHING,
            BenchmarkUnit::KeyValue => &KEY_VALUE,
            BenchmarkUnit::BankingApp => &BANKING_APP,
        }
    }

    /// The benchmarks of this unit, in order.
    pub fn benchmarks(self) -> impl Iterator<Item = PayloadKind> {
        self.workloads().iter().map(|w| w.kind)
    }

    /// The unit a paper benchmark belongs to. Kinds outside the paper's
    /// set (the Smallbank extensions) belong to no unit and fall back to
    /// `BankingApp`, matching the historical catch-all.
    pub fn containing(kind: PayloadKind) -> BenchmarkUnit {
        BenchmarkUnit::ALL
            .into_iter()
            .find(|u| u.benchmarks().any(|k| k == kind))
            .unwrap_or(BenchmarkUnit::BankingApp)
    }
}

/// Contention parameters shared by the BLOCKBENCH-style workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionKnobs {
    /// Zipf exponent of the key/account popularity distribution
    /// (0 = uniform; ≈1 = classic YCSB "zipfian"; higher = hotter).
    pub zipf_s: f64,
    /// Fraction of draws forced into the hot set (the top 5 % of ranks),
    /// on top of the Zipfian skew. `0.0` disables the hot set.
    pub hot_fraction: f64,
    /// Number of accounts (Smallbank) or keys (YCSB) in the preloaded
    /// pool.
    pub account_pool: u64,
}

impl Default for ContentionKnobs {
    fn default() -> Self {
        ContentionKnobs {
            zipf_s: 0.9,
            hot_fraction: 0.2,
            account_pool: 256,
        }
    }
}

impl ContentionKnobs {
    /// Validates and freezes the knobs into a sampler.
    fn sampler(&self) -> Contended {
        assert!(
            (0.0..=1.0).contains(&self.hot_fraction),
            "hot_fraction must be in [0, 1]"
        );
        Contended {
            zipf: Zipf::new(self.account_pool.max(1), self.zipf_s),
            hot: WORKLOAD_DRAWS.stream("hot"),
            rank: WORKLOAD_DRAWS.stream("rank"),
        }
    }

    /// Size of the hot set: the top 5 % of ranks, at least one.
    fn hot_set(&self) -> u64 {
        (self.account_pool / 20).max(1)
    }
}

/// The fixed-key deriver of workload-internal draws. The streams are pure
/// functions of `(client, thread, seq)` by design — like the paper
/// workloads they do not vary with the experiment seed, which is what
/// keeps campaign goldens byte-invariant under `--jobs`/subset filters.
const WORKLOAD_DRAWS: SeedDeriver = SeedDeriver::new(0x5EED_B10C_BE4C_4E55);

/// The Zipf sampler of [`ContentionKnobs`] and the seed streams of its
/// draws, each label hashed once.
#[derive(Debug, Clone)]
struct Contended {
    zipf: Zipf,
    hot: SeedStream,
    rank: SeedStream,
}

impl Contended {
    /// Draws a Zipf-distributed rank for `uk` with hot-set mixing.
    fn rank(&self, knobs: &ContentionKnobs, uk: u64) -> u64 {
        let hot_u = unit_from_hash(self.hot.seed(uk));
        let key_u = unit_from_hash(self.rank.seed(uk));
        if hot_u < knobs.hot_fraction {
            let hot = knobs.hot_set();
            ((key_u * hot as f64) as u64).min(hot - 1)
        } else {
            self.zipf.sample(key_u)
        }
    }
}

/// BLOCKBENCH's Smallbank: the classic 6-op transfer mix over a preloaded
/// pool of checking/savings account pairs, with account popularity skewed
/// by [`ContentionKnobs`].
///
/// Every operation moves money between the two balances of one account or
/// between two accounts, so the pool's total balance is invariant —
/// [`Workload::verify`] checks it from the final ledger alone.
#[derive(Debug, Clone)]
pub struct Smallbank {
    knobs: ContentionKnobs,
    contended: Contended,
    op: SeedStream,
    amount: SeedStream,
}

/// The payload kinds the Smallbank mix emits.
const SMALLBANK_PHASES: [PayloadKind; 6] = [
    PayloadKind::TransactSavings,
    PayloadKind::DepositChecking,
    PayloadKind::WriteCheck,
    PayloadKind::Amalgamate,
    PayloadKind::SendPayment,
    PayloadKind::Balance,
];

impl Smallbank {
    /// Builds the workload; the Zipf CDF over the account pool is
    /// precomputed here.
    pub fn new(knobs: ContentionKnobs) -> Self {
        Smallbank {
            contended: knobs.sampler(),
            op: WORKLOAD_DRAWS.stream("sb-op"),
            amount: WORKLOAD_DRAWS.stream("sb-amt"),
            knobs,
        }
    }

    /// The total balance the pool must conserve.
    pub fn expected_total(&self) -> u64 {
        self.knobs.account_pool * 2 * OPENING_BALANCE
    }

    fn draw_account(&self, salt: u64, uk: u64) -> AccountId {
        AccountId(self.contended.rank(&self.knobs, uk ^ salt))
    }
}

impl Workload for Smallbank {
    fn name(&self) -> &str {
        "Smallbank"
    }

    fn phases(&self) -> &[PayloadKind] {
        &SMALLBANK_PHASES
    }

    fn payload_at(&self, client: ClientId, thread: ThreadId, seq: u64) -> Payload {
        let uk = unique_key(client, thread, seq);
        let op = self.op.seed(uk) % 100;
        let amount = 1 + self.amount.seed(uk) % 10;
        let a = self.draw_account(0, uk);
        // Second party of two-account ops: an independent draw. WriteCheck
        // and Amalgamate tolerate self-transfers (the executor reissues the
        // state unchanged), but SendPayment is the legacy "a pays b" op
        // whose two blind writes assume distinct parties — rotate the payee
        // off the payer so the conserved-total invariant stays provable.
        let b = self.draw_account(0x9E37_79B9_7F4A_7C15, uk);
        match op {
            0..=14 => Payload::balance(a),
            15..=29 => Payload::transact_savings(a, amount),
            30..=44 => Payload::deposit_checking(a, amount),
            45..=59 => Payload::write_check(a, b, amount),
            60..=74 => Payload::amalgamate(a, b),
            _ => {
                let pool = self.knobs.account_pool.max(2);
                let to = if b == a {
                    AccountId((b.0 + 1) % pool)
                } else {
                    b
                };
                Payload::send_payment(a, to, amount)
            }
        }
    }

    fn preload(&self) -> Vec<Payload> {
        (0..self.knobs.account_pool)
            .map(|a| Payload::create_account(AccountId(a), OPENING_BALANCE, OPENING_BALANCE))
            .collect()
    }

    fn verify(&self, ledger: &LedgerState) -> Result<(), String> {
        let total = ledger.total_balance();
        let expected = self.expected_total();
        if total != expected {
            return Err(format!(
                "Smallbank conservation violated: total balance {total}, expected {expected}"
            ));
        }
        Ok(())
    }
}

/// BLOCKBENCH's YCSB port: a read/update/insert mix over a bounded,
/// preloaded keyspace whose key popularity follows a seeded Zipfian
/// distribution (50 % update, 45 % read, 5 % insert — workload-A-like with
/// a small growth component).
#[derive(Debug, Clone)]
pub struct Ycsb {
    knobs: ContentionKnobs,
    contended: Contended,
    op: SeedStream,
}

/// The payload kinds the YCSB mix emits.
const YCSB_PHASES: [PayloadKind; 2] = [PayloadKind::KeyValueSet, PayloadKind::KeyValueGet];

impl Ycsb {
    /// Builds the workload; the Zipf CDF over the keyspace is precomputed
    /// here.
    pub fn new(knobs: ContentionKnobs) -> Self {
        Ycsb {
            contended: knobs.sampler(),
            op: WORKLOAD_DRAWS.stream("ycsb-op"),
            knobs,
        }
    }

    fn draw_key(&self, uk: u64) -> u64 {
        self.contended.rank(&self.knobs, uk)
    }
}

impl Workload for Ycsb {
    fn name(&self) -> &str {
        "YCSB"
    }

    fn phases(&self) -> &[PayloadKind] {
        &YCSB_PHASES
    }

    fn payload_at(&self, client: ClientId, thread: ThreadId, seq: u64) -> Payload {
        let uk = unique_key(client, thread, seq);
        let op = self.op.seed(uk) % 100;
        match op {
            // Update: blind write to a popular key.
            0..=49 => Payload::key_value_set(self.draw_key(uk), seq),
            // Read: popular key, always preloaded so it never misses.
            50..=94 => Payload::key_value_get(self.draw_key(uk)),
            // Insert: a fresh key outside the pool (uniquified by the
            // thread coordinates, like the paper's KeyValue-Set stream).
            _ => Payload::key_value_set(self.knobs.account_pool + uk, seq),
        }
    }

    fn preload(&self) -> Vec<Payload> {
        (0..self.knobs.account_pool)
            .map(|k| Payload::key_value_set(k, k))
            .collect()
    }

    fn verify(&self, ledger: &LedgerState) -> Result<(), String> {
        let pool = self.knobs.account_pool;
        if (ledger.kv_count() as u64) < pool {
            return Err(format!(
                "YCSB keyspace shrank: {} keys, preloaded {pool}",
                ledger.kv_count()
            ));
        }
        for k in 0..pool {
            if ledger.kv_get(k).is_none() {
                return Err(format!("YCSB preloaded key {k} vanished"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn keys_are_unique_across_threads_and_clients() {
        let mut seen = HashSet::new();
        for c in 0..4u32 {
            for t in 0..4u32 {
                for s in 0..500u64 {
                    assert!(seen.insert(unique_key(ClientId(c), ThreadId(t), s)));
                }
            }
        }
    }

    #[test]
    fn get_reads_what_set_wrote() {
        for s in 0..100 {
            let set = paper(PayloadKind::KeyValueSet).payload_at(ClientId(2), ThreadId(3), s);
            let get = paper(PayloadKind::KeyValueGet).payload_at(ClientId(2), ThreadId(3), s);
            let (Payload::KeyValueSet { key: k1, .. }, Payload::KeyValueGet { key: k2 }) =
                (set, get)
            else {
                panic!("wrong payload kinds");
            };
            assert_eq!(k1, k2);
        }
    }

    #[test]
    fn payments_chain_across_threads() {
        // Thread 0's 5th payment starts at thread (0+5)%4 = 1's account 5
        // and pays the next thread's account 5.
        let p = paper(PayloadKind::SendPayment).payload_at(ClientId(0), ThreadId(0), 5);
        let Payload::SendPayment { from, to, amount } = p else {
            panic!("wrong kind");
        };
        assert_eq!(from, account(ClientId(0), ThreadId(1), 5));
        assert_eq!(to, account(ClientId(0), ThreadId(2), 5));
        assert_eq!(amount, PAYMENT_AMOUNT);
        // The pool wraps: payment 69 (seq 5 + 64) reuses pool slot 5.
        let wrapped =
            paper(PayloadKind::SendPayment).payload_at(ClientId(0), ThreadId(0), 5 + PAYMENT_POOL);
        let Payload::SendPayment { from: f2, .. } = wrapped else {
            panic!("wrong kind");
        };
        assert_eq!(f2, from, "same pool slot after wrapping");
    }

    #[test]
    fn concurrent_threads_form_interfering_chains() {
        // At the same seq, the four threads' payments touch overlapping
        // accounts: thread t pays u → u+1, thread t+1 pays u+1 → u+2, ...
        let c = ClientId(2);
        let seq = 8;
        let mut touched: Vec<AccountId> = Vec::new();
        for t in 0..4u32 {
            let Payload::SendPayment { from, to, .. } =
                paper(PayloadKind::SendPayment).payload_at(c, ThreadId(t), seq)
            else {
                panic!("wrong kind");
            };
            touched.push(from);
            touched.push(to);
        }
        let n = touched.len();
        touched.sort();
        touched.dedup();
        assert!(touched.len() < n, "the chains must share accounts");
    }

    #[test]
    fn payments_and_balances_reference_created_accounts() {
        // Every account a payment or balance references at seq s must have
        // been created by some thread's CreateAccount at seq s or s+1.
        let c = ClientId(1);
        for t in 0..4u32 {
            for s in 0..40u64 {
                let Payload::SendPayment { from, to, .. } =
                    paper(PayloadKind::SendPayment).payload_at(c, ThreadId(t), s)
                else {
                    panic!("wrong kind");
                };
                for a in [from, to] {
                    let covered = (0..4u32)
                        .any(|u| (0..PAYMENT_POOL).any(|k| account(c, ThreadId(u), k) == a));
                    assert!(
                        covered,
                        "payment references an account outside the pool: {a}"
                    );
                }
                let Payload::Balance { account: b } =
                    paper(PayloadKind::Balance).payload_at(c, ThreadId(t), s)
                else {
                    panic!("wrong kind");
                };
                assert_eq!(b, from, "balance reads the payment's source account");
            }
        }
    }

    #[test]
    fn units_cover_all_benchmarks_in_order() {
        let all: Vec<PayloadKind> = BenchmarkUnit::ALL
            .iter()
            .flat_map(|u| u.benchmarks())
            .collect();
        assert_eq!(all, PayloadKind::ALL.to_vec());
        assert_eq!(
            BenchmarkUnit::containing(PayloadKind::Balance),
            BenchmarkUnit::BankingApp
        );
        assert_eq!(
            BenchmarkUnit::containing(PayloadKind::KeyValueGet),
            BenchmarkUnit::KeyValue
        );
    }

    #[test]
    fn generation_is_deterministic() {
        for kind in PayloadKind::ALL {
            let w = paper(kind);
            assert_eq!(w.phases(), &[kind]);
            assert_eq!(w.name(), kind.label());
            assert_eq!(
                w.payload_at(ClientId(3), ThreadId(1), 42),
                paper(kind).payload_at(ClientId(3), ThreadId(1), 42)
            );
        }
    }

    #[test]
    fn paper_workloads_have_no_preload_and_trivial_verify() {
        let w = paper(PayloadKind::SendPayment);
        assert!(w.preload().is_empty());
        let empty = coconut_iel::LedgerState::of_world(&coconut_iel::WorldState::new());
        assert!(w.verify(&empty).is_ok());
    }

    #[test]
    fn unit_workloads_and_benchmarks_agree() {
        for unit in BenchmarkUnit::ALL {
            let from_workloads: Vec<PayloadKind> = unit
                .workloads()
                .iter()
                .flat_map(|w| w.phases().iter().copied())
                .collect();
            assert_eq!(from_workloads, unit.benchmarks().collect::<Vec<_>>());
            for w in unit.workloads() {
                assert_eq!(BenchmarkUnit::containing(w.kind), unit);
            }
        }
        // Smallbank kinds belong to no paper unit: the documented
        // fall-back is BankingApp.
        assert_eq!(
            BenchmarkUnit::containing(PayloadKind::Amalgamate),
            BenchmarkUnit::BankingApp
        );
    }

    #[test]
    fn smallbank_stream_is_deterministic_and_stays_in_pool() {
        let knobs = ContentionKnobs {
            zipf_s: 1.1,
            hot_fraction: 0.3,
            account_pool: 64,
        };
        let w = Smallbank::new(knobs);
        assert_eq!(w.name(), "Smallbank");
        assert_eq!(w.phases(), &SMALLBANK_PHASES);
        assert_eq!(w.preload().len(), 64);
        let w2 = Smallbank::new(knobs);
        let mut kinds_seen = HashSet::new();
        for c in 0..4u32 {
            for t in 0..4u32 {
                for s in 0..200u64 {
                    let p = w.payload_at(ClientId(c), ThreadId(t), s);
                    assert_eq!(p, w2.payload_at(ClientId(c), ThreadId(t), s));
                    kinds_seen.insert(p.kind());
                    let in_pool = |a: AccountId| a.0 < knobs.account_pool;
                    match p {
                        Payload::Balance { account }
                        | Payload::TransactSavings { account, .. }
                        | Payload::DepositChecking { account, .. } => {
                            assert!(in_pool(account));
                        }
                        Payload::WriteCheck { from, to, .. }
                        | Payload::Amalgamate { from, to }
                        | Payload::SendPayment { from, to, .. } => {
                            assert!(in_pool(from) && in_pool(to));
                        }
                        other => panic!("unexpected Smallbank payload {other:?}"),
                    }
                }
            }
        }
        // The mix exercises all six ops.
        assert_eq!(kinds_seen.len(), 6, "got {kinds_seen:?}");
    }

    #[test]
    fn smallbank_verify_checks_conservation() {
        let w = Smallbank::new(ContentionKnobs {
            zipf_s: 0.5,
            hot_fraction: 0.0,
            account_pool: 4,
        });
        let mut state = coconut_iel::WorldState::new();
        for p in w.preload() {
            state.apply(&p).unwrap();
        }
        assert!(w
            .verify(&coconut_iel::LedgerState::of_world(&state))
            .is_ok());
        // Apply a few hundred generated ops; conservation must hold.
        for s in 0..300u64 {
            let _ = state.apply(&w.payload_at(ClientId(0), ThreadId(0), s));
        }
        assert!(w
            .verify(&coconut_iel::LedgerState::of_world(&state))
            .is_ok());
        // A minted coin breaks it.
        state
            .apply(&Payload::create_account(AccountId(999), 1, 0))
            .unwrap();
        assert!(w
            .verify(&coconut_iel::LedgerState::of_world(&state))
            .is_err());
    }

    #[test]
    fn ycsb_reads_always_hit_preloaded_keys() {
        let knobs = ContentionKnobs {
            zipf_s: 1.2,
            hot_fraction: 0.2,
            account_pool: 128,
        };
        let w = Ycsb::new(knobs);
        assert_eq!(w.name(), "YCSB");
        let mut state = coconut_iel::WorldState::new();
        for p in w.preload() {
            state.apply(&p).unwrap();
        }
        for s in 0..500u64 {
            let p = w.payload_at(ClientId(1), ThreadId(2), s);
            state
                .apply(&p)
                .unwrap_or_else(|e| panic!("payload {s} failed: {e:?}"));
        }
        assert!(w
            .verify(&coconut_iel::LedgerState::of_world(&state))
            .is_ok());
    }

    #[test]
    fn higher_skew_concentrates_smallbank_accounts() {
        // The hottest account's draw share must grow with the contention
        // knobs — the axis the contention campaign sweeps.
        let share_of_hottest = |zipf_s: f64, hot_fraction: f64| {
            let w = Smallbank::new(ContentionKnobs {
                zipf_s,
                hot_fraction,
                account_pool: 64,
            });
            let mut counts = std::collections::HashMap::new();
            let mut total = 0u64;
            for t in 0..4u32 {
                for s in 0..400u64 {
                    match w.payload_at(ClientId(0), ThreadId(t), s) {
                        Payload::Balance { account }
                        | Payload::TransactSavings { account, .. }
                        | Payload::DepositChecking { account, .. }
                        | Payload::WriteCheck { from: account, .. }
                        | Payload::Amalgamate { from: account, .. }
                        | Payload::SendPayment { from: account, .. } => {
                            *counts.entry(account).or_insert(0u64) += 1;
                            total += 1;
                        }
                        _ => {}
                    }
                }
            }
            *counts.values().max().unwrap() as f64 / total as f64
        };
        let low = share_of_hottest(0.2, 0.05);
        let mid = share_of_hottest(0.9, 0.3);
        let high = share_of_hottest(1.4, 0.7);
        assert!(low < mid && mid < high, "{low} < {mid} < {high} violated");
    }
}
