"""The trading contract as a deterministic state machine with gas metering.

Six phases: Setup, Register, ShareCollection, GradValidation, Reconstruction,
Finished. Transactions either apply (charging a modeled gas cost and
possibly storing words) or are refused by a raised `TxRejected`, in which
case state is unchanged and only the base transaction cost is charged.
Every transaction, deployment included, runs through `TradeContract._tx`,
the only code that charges and logs: one phase guard, one charge and one
`tx_log` record, refused or not. The two checkpoints, `advance_round` (a
round tick in Register) and `begin_validation` (the way out of
ShareCollection), share the phase guard but are free and are not
transactions. `verdicts` holds one outcome per owner; the validity set is
derived from it and is not stored.

Storage is keyed records of 32-byte words, written only by `_store`, which
charges a transaction exactly the words it stores. Verdict shares submitted
by servers are buffered, consumed by the robust reconstruction when the
last server reports, and freed uncharged, so the end-of-session footprint
stays O(N*T) regardless of gradient length.

Gas numbers are calibration constants with EVM-flavored defaults, not
ground truth for any real chain.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from dataclasses import asdict, dataclass

from . import commit as commit_mod
from . import field
from .commit import P, CommitmentKey, VectorCommitment, verify_share
from .field import Q
from .shamir import DecodeFailure, ShareVector, robust_recon

SETUP = "Setup"
REGISTER = "Register"
SHARE_COLLECTION = "ShareCollection"
GRAD_VALIDATION = "GradValidation"
RECONSTRUCTION = "Reconstruction"
FINISHED = "Finished"

# round ticks in Register before the session proceeds with whoever registered
REGISTER_TIMEOUT = 3

PHASES = (SETUP, REGISTER, SHARE_COLLECTION, GRAD_VALIDATION, RECONSTRUCTION, FINISHED)


class TxRejected(Exception):
    """Transaction refused by a phase guard or argument check."""


def _check_int(name: str, value, lo: int | None = None) -> None:
    """Refuse an argument that is not an int (nor a bool), or is below `lo` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, int) or (lo is not None and value < lo):
        kind = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}[lo]
        raise TxRejected(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class GasTable:
    """Per-operation gas costs; defaults are EVM-flavored calibration values."""

    storage_word_write: int = 20000
    storage_word_read: int = 2100
    field_op: int = 10
    group_op: int = 5000
    hash_word: int = 36
    tx_base: int = 21000

    @classmethod
    def from_dict(cls, overrides: dict) -> "GasTable":
        base = asdict(cls())
        for k, v in overrides.items():
            if k not in base:
                raise ValueError(f"unknown gas table entry {k!r}")
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValueError(f"gas table entry {k!r} must be a non-negative integer, got {v!r}")
            base[k] = v
        return cls(**base)


def merkle_root(data: bytes) -> bytes:
    """SHA-256 Merkle root over 1 KiB chunks, last leaf duplicated to a
    power of two."""
    chunk = 1024
    leaves = [data[i : i + chunk] for i in range(0, len(data), chunk)] or [b""]
    hashes = [hashlib.sha256(leaf).digest() for leaf in leaves]
    size = 1
    while size < len(hashes):
        size <<= 1
    hashes.extend([hashes[-1]] * (size - len(hashes)))
    while len(hashes) > 1:
        hashes = [
            hashlib.sha256(hashes[i] + hashes[i + 1]).digest()
            for i in range(0, len(hashes), 2)
        ]
    return hashes[0]


def rs_decode_field_ops(K: int) -> int:
    """Modeled field-operation count of one robust reconstruction."""
    return K * max(1, math.ceil(math.log2(max(K, 2)))) ** 2


class GasMeter:
    def __init__(self, table: GasTable):
        self.table = table
        self.per_method: dict[str, int] = {}
        self.total = 0

    def charge(
        self,
        method: str,
        *,
        writes: int = 0,
        reads: int = 0,
        field_ops: int = 0,
        group_ops: int = 0,
        hash_words: int = 0,
    ) -> int:
        t = self.table
        gas = (
            t.tx_base
            + writes * t.storage_word_write
            + reads * t.storage_word_read
            + field_ops * t.field_op
            + group_ops * t.group_op
            + hash_words * t.hash_word
        )
        self.per_method[method] = self.per_method.get(method, 0) + gas
        self.total += gas
        return gas


class TradeContract:
    """One trading session's on-chain side.

    Disputed shares are checked against commit_key. The rng argument
    stands in for on-chain randomness; the challenge for the validity
    proofs is drawn from it exactly once. The norm bound rho posted at
    `start` fixes the validity predicate before any owner registers; a
    session started without one is not validated. A `tx_log` caller is
    "mo", the owner id (`register`, `store_commitment`,
    `resolve_complaint`) or the server index (`complain`,
    `submit_verdict`); a count, id or verdict share that is not an int,
    a `decode_failed` that is not a bool, a root that is not 32 bytes, a
    commitment that is not T+1 ints in 1..p-1 or a disputed share that is
    not a `ShareVector` is refused; so is a deploy
    with a deposit below 0, a T below 1 or a K not above T + 1, whose
    `TxRejected("deploy: …")` the constructor raises.
    """

    def __init__(
        self,
        deposit: int,
        whitelist,
        K: int,
        T: int,
        commit_key: CommitmentKey,
        rng,
        gas_table: GasTable | None = None,
    ):
        self.phase = SETUP
        self.deposit = deposit
        self.whitelist = frozenset(whitelist)
        self.K = K
        self.T = T
        self.commit_key = commit_key
        self.rng = rng
        self.meter = GasMeter(gas_table or GasTable())
        self.slots: dict[str | tuple, int] = {}
        self.tx_log: list[dict] = []
        self.events: list[dict] = []

        self.root: bytes | None = None
        self.N_max = 0
        self.rho: int | None = None
        self.registered: list[int] = []
        self.commitments: dict[int, VectorCommitment] = {}
        self.pending_complaints: set[tuple[int, int]] = set()
        self.false_complaints: list[tuple[int, int]] = []
        self.challenge: int | None = None
        self.verdict_buffer: dict[int, dict[int, tuple[int, int, bool]]] = {}
        # why an owner is out ("complaint_upheld", "decode_failed",
        # "identity_nonzero" or "output_nonzero"), or None once accepted
        self.verdicts: dict[int, str | None] = {}
        self.balances: dict[str | int, int] = {}
        self.aggregated: VectorCommitment | None = None
        self.register_rounds = 0

        with self._tx("deploy", "mo", SETUP) as cost:
            _check_int("deposit", deposit, lo=0)
            _check_int("K", K)
            _check_int("T", T, lo=1)
            if K <= T + 1:
                raise TxRejected("need K > T + 1 for robust reconstruction")
            self._store(cost, "whitelist", 1)
            self._store(cost, "deposit", 1)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _checkpoint(self, method, phase):
        """Guard an entry point legal only in `phase`; charge and log nothing.

        The phase check, and the body's checks before it changes any state,
        refuse with `TxRejected(reason)`, re-raised as "<method>: <reason>"."""
        try:
            if self.phase != phase:
                raise TxRejected(f"not allowed in phase {self.phase}")
            yield
        except TxRejected as exc:
            raise TxRejected(f"{method}: {exc}") from None

    @contextlib.contextmanager
    def _tx(self, method, caller, phase):
        """Run one transaction's body behind `_checkpoint`; charge and log it.

        The body and `_store` put `GasMeter.charge` operands into the yielded
        dict. Applied or refused, it costs one charge and one `tx_log` record,
        whose `stored_words_delta` is the live word count's change across the
        body. A refusal pays the base cost, keeps its phase, is re-raised."""
        words = self.on_chain_word_count()
        cost: dict[str, int] = {}
        refusal = None
        try:
            with self._checkpoint(method, phase):
                yield cost
        except TxRejected as exc:
            refusal, phase, cost = exc, self.phase, {}
        self.tx_log.append(
            {
                "method": method,
                "caller": str(caller),
                "gas": self.meter.charge(method, **cost),
                "phase_before": phase,
                "phase_after": self.phase,
                "stored_words_delta": self.on_chain_word_count() - words,
            }
        )
        if refusal is not None:
            raise refusal

    def _store(self, cost, key, words):
        """Set record `key` to `words` words (0 frees it) and charge the words."""
        if words:
            self.slots[key] = words
        else:
            del self.slots[key]
        cost["writes"] = cost.get("writes", 0) + words

    def _event(self, name, **info):
        self.events.append({"event": name, "phase": self.phase, **info})

    def on_chain_word_count(self) -> int:
        return sum(self.slots.values())

    @property
    def validity(self) -> set[int]:
        """Registered owners not excluded: no verdict yet, or accepted."""
        return {n for n in self.registered if self.verdicts.get(n) is None}

    def gas_report(self) -> dict:
        return {"per_method": dict(sorted(self.meter.per_method.items())),
                "total": self.meter.total}

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def start(self, root: bytes, N_max: int, rho: int | None = None):
        """Open registration under the published model's root. A given rho
        is the norm bound of the session's validity predicate, stored as
        its own word; None leaves the session unvalidated."""
        with self._tx("start", "mo", SETUP) as cost:
            if not isinstance(root, bytes) or len(root) != 32:
                raise TxRejected(f"root must be 32 bytes, got {root!r}")
            _check_int("N_max", N_max, lo=1)
            if rho is not None:
                _check_int("rho", rho, lo=1)
            self.root = root
            self.N_max = N_max
            self._store(cost, "root", 1)
            self._store(cost, "params", 1)
            if rho is not None:
                self.rho = rho
                self._store(cost, "rho", 1)
            self.phase = REGISTER
            cost["hash_words"] = 1

    def register(self, do_id: int):
        with self._tx("register", do_id, REGISTER) as cost:
            _check_int("do_id", do_id)
            if do_id not in self.whitelist:
                raise TxRejected("not whitelisted")
            if do_id in self.registered:
                raise TxRejected("already registered")
            self.registered.append(do_id)
            self._store(cost, "registered", 1)
            if len(self.registered) >= self.N_max:
                self.phase = SHARE_COLLECTION
                self._event("registration_complete", count=len(self.registered))
            cost["reads"] = 1

    def advance_round(self):
        """Simulated round tick; triggers the registration timeout."""
        with self._checkpoint("advance_round", REGISTER):
            self.register_rounds += 1
            if self.register_rounds >= REGISTER_TIMEOUT:
                self.phase = SHARE_COLLECTION
                self._event("registration_timeout", count=len(self.registered))

    def store_commitment(self, do_id: int, commitment: VectorCommitment):
        with self._tx("store_commitment", do_id, SHARE_COLLECTION) as cost:
            _check_int("do_id", do_id)
            if do_id not in self.registered:
                raise TxRejected("unregistered data owner")
            if do_id in self.commitments:
                raise TxRejected("commitment already stored")
            if not isinstance(commitment, VectorCommitment):
                raise TxRejected(f"commitment must be a VectorCommitment, got {commitment!r}")
            elements = commitment.elements
            if not isinstance(elements, tuple) or len(elements) != self.T + 1:
                raise TxRejected("commitment width must be T+1")
            for e in elements:
                if isinstance(e, bool) or not isinstance(e, int) or not 0 < e < P:
                    raise TxRejected(f"commitment elements must be integers in 1..p-1, got {e!r}")
            self.commitments[do_id] = commitment
            self._store(cost, ("commitment", do_id), self.T + 1)

    def complain(self, server_i: int, do_id: int):
        with self._tx("complain", server_i, SHARE_COLLECTION):
            _check_int("server_i", server_i)
            _check_int("do_id", do_id)
            if do_id not in self.commitments:
                raise TxRejected("no commitment for that data owner")
            if not 1 <= server_i <= self.K:
                raise TxRejected("unknown server index")
            self.pending_complaints.add((server_i, do_id))
            self._event("complaint", server=server_i, do=do_id)

    def resolve_complaint(self, do_id: int, share: ShareVector):
        """The accused data owner submits the disputed share; the contract
        re-runs the share check itself and rules."""
        with self._tx("resolve_complaint", do_id, SHARE_COLLECTION) as cost:
            _check_int("do_id", do_id)
            if not isinstance(share, ShareVector):
                raise TxRejected(f"share must be a ShareVector, got {share!r}")
            _check_int("share index", share.index)
            key = (share.index, do_id)
            if key not in self.pending_complaints:
                raise TxRejected("no matching complaint")
            self.pending_complaints.discard(key)
            ok = verify_share(share, self.commitments[do_id], self.commit_key)
            if ok:
                self.false_complaints.append((share.index, do_id))
                self._event("complaint_dismissed", server=share.index, do=do_id)
            else:
                if do_id not in self.verdicts:  # a later upheld complaint keeps the first verdict
                    self.verdicts[do_id] = "complaint_upheld"
                    self._store(cost, ("verdict", do_id), 1)
                self._event("complaint_upheld", server=share.index, do=do_id)
            checked = (self.T + 1) + len(self.commit_key)
            cost.update(reads=checked, group_ops=checked)
            return ok

    def begin_validation(self):
        """Checkpoint event: every registered owner committed, complaints done;
        the validity set is all but the owners an upheld complaint excluded."""
        with self._checkpoint("begin_validation", SHARE_COLLECTION):
            if self.pending_complaints:
                raise TxRejected("complaints still pending")
            missing = [n for n in self.registered if n not in self.commitments]
            if missing:
                raise TxRejected(f"missing commitments for {missing}")
            self.phase = GRAD_VALIDATION
            self._event("validation_started", validity=sorted(self.validity))

    def sample_challenge(self) -> int:
        with self._tx("sample_challenge", "mo", GRAD_VALIDATION) as cost:
            if self.rho is None:
                raise TxRejected("validation disabled for this session")
            if self.challenge is not None:
                raise TxRejected("challenge already sampled")
            self.challenge = field.rand_element(self.rng)
            self._store(cost, "challenge", 1)
            return self.challenge

    def submit_verdict(
        self,
        server_i: int,
        do_id: int,
        identity_share: int,
        output_share: int,
        decode_failed: bool = False,
    ):
        with self._tx("submit_verdict", server_i, GRAD_VALIDATION) as cost:
            _check_int("server_i", server_i)
            _check_int("do_id", do_id)
            _check_int("identity_share", identity_share)
            _check_int("output_share", output_share)
            if not isinstance(decode_failed, bool):
                raise TxRejected(f"decode_failed must be a bool, got {decode_failed!r}")
            if self.challenge is None:
                raise TxRejected("challenge not sampled yet")
            if not 1 <= server_i <= self.K:
                raise TxRejected("unknown server index")
            if do_id not in self.validity:
                raise TxRejected("data owner not under validation")
            if server_i in self.verdict_buffer.get(do_id, {}):
                raise TxRejected("duplicate submission")
            buf = self.verdict_buffer.setdefault(do_id, {})
            buf[server_i] = (identity_share % Q, output_share % Q, decode_failed)
            self._store(cost, ("verdict_share", do_id, server_i), 2)
            if len(buf) == self.K:
                cost["field_ops"] = self._finalize_verdict(do_id)
                for i in buf:
                    self._store(cost, ("verdict_share", do_id, i), 0)
                self._store(cost, ("verdict", do_id), 1)

    def _finalize_verdict(self, do_id: int) -> int:
        """Robustly reconstruct identity and output; record the verdict.

        Honest servers decode the same broadcast and flag together, so up
        to (K-T-1)//2 flags are liars' and decode as erasures; more reject.
        Returns the modeled field-op count charged to the finalizing tx."""
        buf = self.verdict_buffer[do_id]
        xs = sorted(i for i in buf if not buf[i][2])
        id_shares, out_shares = ([buf[i][j] for i in xs] for j in (0, 1))
        field_ops = rs_decode_field_ops(len(xs))
        reason = "decode_failed"
        if len(buf) - len(xs) <= (self.K - self.T - 1) // 2:
            with contextlib.suppress(DecodeFailure):
                if robust_recon(xs, id_shares, self.T) != 0:
                    reason = "identity_nonzero"
                else:
                    field_ops += rs_decode_field_ops(len(xs))
                    output = robust_recon(xs, out_shares, self.T)
                    reason = "output_nonzero" if output != 0 else None
        self.verdicts[do_id] = reason
        self._event("gradient_rejected" if reason else "gradient_accepted", do=do_id)
        return field_ops

    def pay(self):
        """Split the deposit over the validity set, once every owner in it
        has a verdict (or no rho was posted)."""
        with self._tx("pay", "mo", GRAD_VALIDATION) as cost:
            pending = [n for n in self.validity if n not in self.verdicts]
            if self.rho is not None and pending:
                raise TxRejected(f"verdicts pending for {pending}")
            if self.validity:
                per_do = self.deposit // len(self.validity)
                self.balances = dict.fromkeys(sorted(self.validity), per_do)
                retained = self.deposit - per_do * len(self.validity)
                if retained:
                    self.balances["mo"] = retained
                self._event("payment", per_do=per_do, retained=retained)
            else:
                self.balances = {"mo": self.deposit}
                self._event("payment_refunded", amount=self.deposit)
            for account in self.balances:
                self._store(cost, ("balance", account), 1)
            self.phase = RECONSTRUCTION

    def aggregate_commitment(self) -> VectorCommitment | None:
        with self._tx("aggregate_commitment", "mo", RECONSTRUCTION) as cost:
            if self.aggregated is not None:
                raise TxRejected("already aggregated")
            if not self.validity:
                return None
            parts = [self.commitments[n] for n in sorted(self.validity)]
            self.aggregated = commit_mod.aggregate_commitments(parts)
            self._store(cost, "aggregate_commitment", self.T + 1)
            read = len(parts) * (self.T + 1)
            cost.update(group_ops=read, reads=read)
            return self.aggregated

    def finish(self):
        with self._tx("finish", "mo", RECONSTRUCTION):
            self.phase = FINISHED


def expected_word_count(N: int, T: int, paid: int) -> int:
    """Live words at the end of a validated session with a non-empty validity
    set, independent of gradient size: 7 constant one-word records
    (`whitelist`, `deposit`, `root`, `params`, `rho`, `registered`,
    `challenge`), T+1 commitment words and a verdict per owner, T+1
    aggregate words, a balance per payee. The payees are the paid owners,
    and the model owner too when the deposit leaves a remainder."""
    return 7 + N * (T + 1) + N + (T + 1) + paid


def baseline_gas_estimate(
    m: int,
    N: int,
    circuit_gate_count: int,
    table: GasTable | None = None,
) -> dict:
    """Gas accounting for the fully on-chain comparison mode.

    Every gradient is stored on-chain (m words each), the validity circuit
    is evaluated by the contract (`circuit_gate_count` field ops reading
    the gradient), and aggregation sums the stored gradients on-chain.
    Used only for cost-ratio comparisons.
    """
    meter = GasMeter(table or GasTable())
    meter.charge("deploy", writes=2)
    # root, params and rho: the contract evaluates the norm circuit itself
    meter.charge("start", hash_words=1, writes=3)
    for _ in range(N):
        meter.charge("register", reads=1, writes=1)
        meter.charge("store_gradient", writes=m)
        meter.charge("validate_gradient", reads=m, field_ops=circuit_gate_count, writes=1)
    meter.charge("aggregate_gradient", reads=N * m, field_ops=(N - 1) * m, writes=m)
    meter.charge("pay", writes=N)
    return {"per_method": meter.per_method, "total": meter.total}
