"""The trading contract as a deterministic state machine with gas metering.

Eight phases: Setup, Register, ShareCollection, ShareReady, GradValidation,
Payment, Reconstruction, Finished. Transactions either apply (charging a
modeled gas cost and possibly storing words) or are rejected, in which case
state is unchanged and only the base transaction cost is charged. Every
transaction, deployment included, runs through `TradeContract._tx`: one phase
guard, one charge and one `tx_log` record. Events (round ticks, phase
checkpoints) are free and are not transactions.

Storage is modeled as named slots of 32-byte words; the live word count is
what the storage-independence analysis measures. Verdict shares submitted
by servers are buffered, consumed by the robust reconstruction when the
last server reports, and freed, so the end-of-session footprint stays
O(N*T) regardless of gradient length.

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
from .circuit import Circuit
from .commit import CommitmentKey, VectorCommitment, verify_share
from .field import Q
from .shamir import DecodeFailure, ShareVector, robust_recon_scalar

SETUP = "Setup"
REGISTER = "Register"
SHARE_COLLECTION = "ShareCollection"
SHARE_READY = "ShareReady"
GRAD_VALIDATION = "GradValidation"
PAYMENT = "Payment"
RECONSTRUCTION = "Reconstruction"
FINISHED = "Finished"

PHASES = (
    SETUP,
    REGISTER,
    SHARE_COLLECTION,
    SHARE_READY,
    GRAD_VALIDATION,
    PAYMENT,
    RECONSTRUCTION,
    FINISHED,
)


class TxRejected(Exception):
    """Transaction refused by a phase guard or argument check."""


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

    The rng argument stands in for on-chain randomness; the challenge for
    the validity proofs is drawn from it exactly once.
    """

    def __init__(
        self,
        deposit: int,
        whitelist,
        K: int,
        T: int,
        commit_key: CommitmentKey | None = None,
        gas_table: GasTable | None = None,
        rng=None,
        validation: bool = True,
        register_timeout: int = 3,
    ):
        if deposit < 0:
            raise ValueError("deposit must be non-negative")
        if K <= T + 1:
            raise ValueError("need K > T + 1 for robust reconstruction")
        self.phase = SETUP
        self.deposit = deposit
        self.whitelist = frozenset(whitelist)
        self.K = K
        self.T = T
        self.commit_key = commit_key
        self.validation = validation
        self.register_timeout = register_timeout
        self.rng = rng
        self.meter = GasMeter(gas_table or GasTable())
        self.slots: dict[str, int] = {}
        self.tx_log: list[dict] = []
        self.events: list[dict] = []

        self.root: bytes | None = None
        self.M0 = 0
        self.N_max = 0
        self.registered: list[int] = []
        self.validity: set[int] = set()
        self.commitments: dict[int, VectorCommitment] = {}
        self.pending_complaints: set[tuple[int, int]] = set()
        self.false_complaints: list[tuple[int, int]] = []
        self.excluded_at_sharing: set[int] = set()
        self.circuit: Circuit | None = None
        self.challenge: int | None = None
        self.verdict_buffer: dict[int, dict[int, tuple[int, int, bool]]] = {}
        self.verdicts: dict[int, dict] = {}
        self.balances: dict[str | int, int] = {}
        self.aggregated: VectorCommitment | None = None
        self.register_rounds = 0

        with self._tx("deploy", "mo", SETUP) as cost:
            self.slots["whitelist"] = 1
            self.slots["deposit"] = 1
            cost["writes"] = 2

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _tx(self, method, caller, phase):
        """Run the body of one transaction that is legal only in `phase`.

        The body checks its arguments with `_reject` before it changes any
        state, and puts its `GasMeter.charge` operands into the yielded dict.
        If it returns normally, the meter is charged once and one `tx_log`
        record is appended; its `stored_words_delta` is the change in the
        live word count across the body."""
        if self.phase != phase:
            self._reject(method, caller, f"not allowed in phase {self.phase}")
        words = self.on_chain_word_count()
        cost: dict[str, int] = {}
        yield cost
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

    def _reject(self, method, caller, reason):
        """Refuse a transaction: it still pays the base cost and is logged."""
        with self._tx(method, caller, self.phase):
            pass
        raise TxRejected(f"{method}: {reason}")

    def _event(self, name, **info):
        self.events.append({"event": name, "phase": self.phase, **info})

    def on_chain_word_count(self) -> int:
        return sum(self.slots.values())

    def gas_report(self) -> dict:
        return {"per_method": dict(sorted(self.meter.per_method.items())),
                "total": self.meter.total}

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def start(self, root: bytes, M0: int, N_max: int, caller="mo"):
        with self._tx("start", caller, SETUP) as cost:
            if len(root) != 32:
                self._reject("start", caller, "root must be 32 bytes")
            if M0 < 1 or N_max < 1:
                self._reject("start", caller, "M0 and N_max must be positive")
            self.root = bytes(root)
            self.M0 = M0
            self.N_max = N_max
            self.slots["root"] = 1
            self.slots["params"] = 1
            self.phase = REGISTER
            cost.update(writes=2, hash_words=1)

    def register(self, do_id: int):
        with self._tx("register", do_id, REGISTER) as cost:
            if do_id not in self.whitelist:
                self._reject("register", do_id, "not whitelisted")
            if do_id in self.registered:
                self._reject("register", do_id, "already registered")
            self.registered.append(do_id)
            self.slots["registered"] = 1
            if len(self.registered) >= self.N_max:
                self.phase = SHARE_COLLECTION
                self._event("registration_complete", count=len(self.registered))
            cost.update(reads=1, writes=1)

    def advance_round(self):
        """Simulated round tick; triggers the registration timeout."""
        if self.phase == REGISTER:
            self.register_rounds += 1
            if self.register_rounds >= self.register_timeout:
                self.phase = SHARE_COLLECTION
                self._event("registration_timeout", count=len(self.registered))
        else:
            raise TxRejected("advance_round: only meaningful during Register")

    def store_commitment(self, do_id: int, commitment: VectorCommitment, caller=None):
        caller = do_id if caller is None else caller
        with self._tx("store_commitment", caller, SHARE_COLLECTION) as cost:
            if do_id not in self.registered:
                self._reject("store_commitment", caller, "unregistered data owner")
            if do_id in self.commitments:
                self._reject("store_commitment", caller, "commitment already stored")
            if len(commitment.elements) != self.T + 1:
                self._reject("store_commitment", caller, "commitment width must be T+1")
            self.commitments[do_id] = commitment
            self.slots["commitments"] = self.slots.get("commitments", 0) + self.T + 1
            cost["writes"] = self.T + 1

    def complain(self, server_i: int, do_id: int):
        with self._tx("complain", server_i, SHARE_COLLECTION):
            if do_id not in self.commitments:
                self._reject("complain", server_i, "no commitment for that data owner")
            if not 1 <= server_i <= self.K:
                self._reject("complain", server_i, "unknown server index")
            self.pending_complaints.add((server_i, do_id))
            self._event("complaint", server=server_i, do=do_id)

    def resolve_complaint(self, do_id: int, share: ShareVector):
        """The accused data owner submits the disputed share; the contract
        re-runs the share check itself and rules."""
        with self._tx("resolve_complaint", do_id, SHARE_COLLECTION) as cost:
            key = (share.index, do_id)
            if key not in self.pending_complaints:
                self._reject("resolve_complaint", do_id, "no matching complaint")
            if self.commit_key is None:
                self._reject("resolve_complaint", do_id, "no commitment key configured")
            self.pending_complaints.discard(key)
            ok = verify_share(share, self.commitments[do_id], self.commit_key)
            if ok:
                self.false_complaints.append((share.index, do_id))
                self._event("complaint_dismissed", server=share.index, do=do_id)
            else:
                self.excluded_at_sharing.add(do_id)
                self._event("complaint_upheld", server=share.index, do=do_id)
            checked = (self.T + 1) + len(self.commit_key)
            cost.update(reads=checked, group_ops=checked, writes=1)
            return ok

    def mark_shares_ready(self):
        """Checkpoint event: every registered owner resolved, complaints done.

        Writes the validity set: registered owners minus those excluded by an
        upheld complaint."""
        if self.phase != SHARE_COLLECTION:
            raise TxRejected("mark_shares_ready: wrong phase")
        if self.pending_complaints:
            raise TxRejected("mark_shares_ready: complaints still pending")
        missing = [n for n in self.registered if n not in self.commitments]
        if missing:
            raise TxRejected(f"mark_shares_ready: missing commitments for {missing}")
        self.validity = {n for n in self.registered if n not in self.excluded_at_sharing}
        self.slots["validity"] = 1
        self.phase = SHARE_READY
        self._event("shares_ready", validity=sorted(self.validity))

    def begin_validation(self):
        if self.phase != SHARE_READY:
            raise TxRejected("begin_validation: wrong phase")
        self.phase = GRAD_VALIDATION
        self._event("validation_started")

    def reveal_circuit(self, circ: Circuit, caller="mo"):
        with self._tx("reveal_circuit", caller, GRAD_VALIDATION) as cost:
            if not self.validation:
                self._reject("reveal_circuit", caller, "validation disabled for this session")
            if self.circuit is not None:
                self._reject("reveal_circuit", caller, "circuit already revealed")
            blob = circ.to_json().encode()
            self.circuit = circ
            self.slots["circuit_hash"] = 1
            cost.update(writes=1, hash_words=(len(blob) + 31) // 32)

    def sample_challenge(self, caller="mo") -> int:
        with self._tx("sample_challenge", caller, GRAD_VALIDATION) as cost:
            if self.circuit is None:
                self._reject("sample_challenge", caller, "circuit not revealed yet")
            if self.challenge is not None:
                self._reject("sample_challenge", caller, "challenge already sampled")
            self.challenge = field.rand_element(self.rng)
            self.slots["challenge"] = 1
            cost["writes"] = 1
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
            if self.challenge is None:
                self._reject("submit_verdict", server_i, "challenge not sampled yet")
            if not 1 <= server_i <= self.K:
                self._reject("submit_verdict", server_i, "unknown server index")
            if do_id not in self.validity:
                self._reject("submit_verdict", server_i, "data owner not under validation")
            if server_i in self.verdict_buffer.get(do_id, {}):
                self._reject("submit_verdict", server_i, "duplicate submission")
            buf = self.verdict_buffer.setdefault(do_id, {})
            buf[server_i] = (identity_share % Q, output_share % Q, bool(decode_failed))
            self.slots["verdict_buffer"] = self.slots.get("verdict_buffer", 0) + 2
            cost["writes"] = 2
            if len(buf) == self.K:
                cost.update(writes=3, field_ops=self._finalize_verdict(do_id))
                self.slots["verdict_buffer"] -= 2 * self.K
                if self.slots["verdict_buffer"] == 0:
                    del self.slots["verdict_buffer"]
                self.slots["verdicts"] = self.slots.get("verdicts", 0) + 1

    def _finalize_verdict(self, do_id: int) -> int:
        """Robustly reconstruct identity and output; update validity.

        Returns the modeled field-op count charged to the finalizing tx."""
        buf = self.verdict_buffer[do_id]
        id_shares = [buf[i][0] for i in range(1, self.K + 1)]
        out_shares = [buf[i][1] for i in range(1, self.K + 1)]
        any_fail = any(buf[i][2] for i in range(1, self.K + 1))
        field_ops = rs_decode_field_ops(self.K)
        valid = False
        identity = None
        output = None
        if not any_fail:
            try:
                identity = robust_recon_scalar(id_shares, self.T)
                if identity == 0:
                    field_ops += rs_decode_field_ops(self.K)
                    output = robust_recon_scalar(out_shares, self.T)
                    valid = output == 0
            except DecodeFailure:
                valid = False
        self.verdicts[do_id] = {
            "identity_zero": identity == 0 if identity is not None else False,
            "output_zero": output == 0 if output is not None else False,
            "valid": valid,
            "decode_failed": any_fail or identity is None,
        }
        if not valid:
            self.validity.discard(do_id)
            self._event("gradient_rejected", do=do_id)
        else:
            self._event("gradient_accepted", do=do_id)
        return field_ops

    def complete_validation(self):
        """Event: all validity verdicts are in (or validation is disabled)."""
        if self.phase != GRAD_VALIDATION:
            raise TxRejected("complete_validation: wrong phase")
        if self.validation:
            pending = [n for n in self.validity if n not in self.verdicts]
            if pending:
                raise TxRejected(f"complete_validation: verdicts pending for {pending}")
        self.phase = PAYMENT
        self._event("validation_complete", validity=sorted(self.validity))

    def pay(self, caller="mo"):
        with self._tx("pay", caller, PAYMENT) as cost:
            if self.validity:
                per_do = self.deposit // len(self.validity)
                for n in sorted(self.validity):
                    self.balances[n] = self.balances.get(n, 0) + per_do
                retained = self.deposit - per_do * len(self.validity)
                self._event("payment", per_do=per_do, retained=retained)
                cost["writes"] = len(self.validity)
            else:
                self.balances["mo"] = self.balances.get("mo", 0) + self.deposit
                self._event("payment_refunded", amount=self.deposit)
                cost["writes"] = 1
            self.phase = RECONSTRUCTION

    def aggregate_commitment(self, caller="mo") -> VectorCommitment | None:
        with self._tx("aggregate_commitment", caller, RECONSTRUCTION) as cost:
            if self.aggregated is not None:
                self._reject("aggregate_commitment", caller, "already aggregated")
            if not self.validity:
                return None
            parts = [self.commitments[n] for n in sorted(self.validity)]
            self.aggregated = commit_mod.aggregate_commitments(parts)
            self.slots["aggregate_commitment"] = self.T + 1
            read = len(parts) * (self.T + 1)
            cost.update(writes=self.T + 1, group_ops=read, reads=read)
            return self.aggregated

    def finish(self, caller="mo"):
        with self._tx("finish", caller, RECONSTRUCTION):
            self.phase = FINISHED


def expected_word_count(N: int, T: int) -> int:
    """Closed-form live storage at session end, independent of gradient size:
    8 constant slots + N*(T+1) commitment words + N verdict records + T+1
    aggregate commitment words."""
    return 8 + N * (T + 1) + N + (T + 1)


def baseline_gas_estimate(
    m: int,
    N: int,
    circuit_gate_count: int,
    table: GasTable | None = None,
) -> dict:
    """Gas accounting for the fully on-chain comparison mode.

    Every gradient is stored on-chain (m words each), the validity circuit
    is evaluated by the contract (one field op per gate, reading the
    gradient), and aggregation sums the stored gradients on-chain. Used
    only for cost-ratio comparisons.
    """
    meter = GasMeter(table or GasTable())
    meter.charge("deploy", writes=2)
    meter.charge("start", hash_words=1, writes=2)
    for _ in range(N):
        meter.charge("register", reads=1, writes=1)
        meter.charge("store_gradient", writes=m)
        meter.charge("validate_gradient", reads=m, field_ops=circuit_gate_count, writes=1)
    meter.charge("aggregate_gradient", reads=N * m, field_ops=(N - 1) * m, writes=m)
    meter.charge("pay", writes=N)
    return {"per_method": meter.per_method, "total": meter.total}
