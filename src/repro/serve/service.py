"""The overload-robust query service over a completed run directory.

``repro serve`` answers analysis queries — state organ signatures,
relative-risk highlights, user-cluster profiles, health probes — from
the artifacts of a finished ``repro run``.  The interesting part is not
the answers but what happens when too many questions arrive at once.
The service stacks four defenses, consulted in a fixed order for every
request:

1. **Admission** (:mod:`repro.serve.admission`) — token bucket plus
   bounded queue; overload is refused explicitly at the front door.
2. **Deadlines** (:mod:`repro.serve.deadline`) — a budget fixed at
   arrival and spent by every stage; expiry yields an ``expired``
   response, never a partial payload.
3. **Circuit breaking** (:mod:`repro.serve.breaker`) — repeated
   artifact-load failures trip to fail-fast, so a dead dependency costs
   microseconds of budget, not all of it.
4. **Brownout** (:mod:`repro.serve.degrade`) — sustained queue pressure
   moves handlers onto precomputed coarse summaries *before* any fresh
   computation is shed.

The whole service runs on a simulated clock
(:class:`repro.obs.clock.ManualClock`): handler stages *advance* the
clock by declared costs instead of sleeping, so a serve run is a
discrete-event simulation — wall-clock-free, seedable, and
byte-identical for a fixed ``(seed, request file)`` pair.  The governing
invariant, proved by ``tests/properties/test_props_serve_chaos.py``:
every submitted request is accounted for exactly once as completed,
rejected, expired, or dead-lettered.
"""

from __future__ import annotations

import enum
import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, cast

from repro.core.attention import build_attention_matrix
from repro.core.characterize import RegionCharacterization, characterize_regions
from repro.core.relative_risk import highlighted_organs
from repro.core.user_clusters import UserClustering, cluster_users
from repro.config import UserClusteringConfig
from repro.dataset.corpus import TweetCorpus
from repro.dataset.io import read_jsonl
from repro.errors import ConfigError, ReproError
from repro.faults.load import InjectedQueryError, LoadFault, LoadFaultPlan
from repro.obs.clock import ManualClock
from repro.obs.telemetry import current
from repro.organs import Organ
from repro.serve.admission import AdmissionPolicy, AdmissionQueue, RequestClass
from repro.serve.artifacts import ArtifactCache, corpus_generation
from repro.serve.breaker import BreakerOpenError, BreakerPolicy, CircuitBreaker
from repro.serve.deadline import Deadline, DeadlineExceeded
from repro.serve.degrade import BrownoutLadder, BrownoutPolicy, CoarseSummaries
from repro.serve.report import OverloadReport
from repro.storage.atomic import AtomicWriter
from repro.storage.manifest import Manifest, record_crc, write_manifest

#: Query kinds the stock service answers.
QUERY_KINDS = ("state_signature", "relative_risk", "cluster_profile", "health")

#: k-means restarts for the serving-side clustering artifact — enough
#: for stability on serving-scale corpora without dominating load cost.
_CLUSTER_N_INIT = 2


class QueryError(ReproError):
    """A request the service cannot act on (bad params, bad kind)."""


class Outcome(enum.Enum):
    """The four — and only four — terminal fates of a request."""

    COMPLETED = "completed"
    REJECTED = "rejected"
    EXPIRED = "expired"
    DEAD_LETTERED = "dead_lettered"


@dataclass(frozen=True, slots=True)
class QueryRequest:
    """One query offered to the service.

    Attributes:
        request_id: client-chosen id echoed on the response.
        kind: one of :data:`QUERY_KINDS` (unknown kinds dead-letter).
        arrival: simulated arrival time, seconds from epoch 0.
        params: query parameters as sorted (key, value) pairs — a
            hashable stand-in for a dict, so requests stay frozen.
        deadline: per-request budget in seconds; ``None`` uses the
            service default.
        poison: marks an injected poison query (dead-letters on
            dequeue); set by the load-chaos plan, never by clients.
    """

    request_id: str
    kind: str
    arrival: float
    params: tuple[tuple[str, str], ...] = ()
    deadline: float | None = None
    poison: bool = False

    def param(self, key: str) -> str | None:
        for name, value in self.params:
            if name == key:
                return value
        return None

    @property
    def request_class(self) -> RequestClass:
        """Health probes are critical; everything else is normal."""
        if self.kind == "health":
            return RequestClass.CRITICAL
        return RequestClass.NORMAL


@dataclass(frozen=True, slots=True)
class Response:
    """One terminal answer; exactly one per submitted request.

    Attributes:
        request_id: echo of the request (or ``line-N`` for malformed
            input lines).
        outcome: the request's terminal fate.
        status: detail under the outcome (``ok``, ``degraded``,
            ``queue_full``, ``poison_query``, ...).
        payload: the answer, for completed requests only — partial
            payloads never escape.
        brownout_level: ladder level the request was served at.
        finished_at: simulated time the response was produced.
    """

    request_id: str
    outcome: Outcome
    status: str
    payload: dict[str, object] | None = None
    brownout_level: int = 0
    finished_at: float = 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "request_id": self.request_id,
            "outcome": self.outcome.value,
            "status": self.status,
            "payload": self.payload,
            "brownout_level": self.brownout_level,
            "finished_at": round(self.finished_at, 9),
        }


@dataclass(frozen=True, slots=True)
class ServicePolicy:
    """Costs and sub-policies for one service instance.

    The ``*_cost`` fields are the simulated seconds each handler stage
    advances the clock by — the service's model of its own latency.

    Attributes:
        health_cost: cost of a health probe.
        coarse_cost: cost of answering from coarse summaries.
        state_signature_cost: fresh §IV-B signature computation.
        relative_risk_cost: fresh Fig. 5 RR computation.
        cluster_profile_cost: fresh Fig. 7 profile computation.
        artifact_load_cost: one artifact load through the store.
        default_deadline: budget for requests that name none.
        cluster_k: k for the serving-side user clustering.
        admission / breaker / brownout: the defense sub-policies.
    """

    health_cost: float = 0.001
    coarse_cost: float = 0.005
    state_signature_cost: float = 0.02
    relative_risk_cost: float = 0.05
    cluster_profile_cost: float = 0.10
    artifact_load_cost: float = 0.25
    default_deadline: float = 2.0
    cluster_k: int = 6
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    brownout: BrownoutPolicy = field(default_factory=BrownoutPolicy)

    def __post_init__(self) -> None:
        for name in (
            "health_cost",
            "coarse_cost",
            "state_signature_cost",
            "relative_risk_cost",
            "cluster_profile_cost",
            "artifact_load_cost",
            "default_deadline",
        ):
            value = getattr(self, name)
            if value <= 0.0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        if self.cluster_k < 1:
            raise ConfigError(f"cluster_k must be >= 1, got {self.cluster_k}")


class ArtifactStore:
    """Lazy, cached, breaker-guarded loads of run analysis artifacts.

    Every cache miss passes through the circuit breaker and the load
    fault plan, and advances the simulated clock by the load cost (plus
    injected slowness).  A hit is free — the dangerous seam is the load,
    not the lookup.

    The builder work behind each load is memoized in a generation-keyed
    :class:`~repro.serve.artifacts.ArtifactCache`: the store still pays
    the simulated load cost and reports to the breaker on every *store*
    miss, but the expensive JSONL parse / clustering runs at most once
    per corpus generation across every store sharing the cache.

    Args:
        run_dir: completed run directory holding ``corpus.jsonl``.
        policy: service policy (costs, cluster k).
        plan: load-chaos plan; faults draw per (artifact, load index).
        clock: the service's simulated clock.
        breaker: the breaker guarding this store.
        cache: the shared builder cache.
        generation: this run directory's corpus generation key.
    """

    def __init__(
        self,
        run_dir: Path,
        policy: ServicePolicy,
        plan: LoadFaultPlan,
        clock: ManualClock,
        breaker: CircuitBreaker,
        cache: ArtifactCache,
        generation: str,
    ):
        self._policy = policy
        self._plan = plan
        self._clock = clock
        self._breaker = breaker
        self._shared = cache
        self._generation = generation
        self._run_dir = run_dir
        self._cache: dict[str, object] = {}
        self._load_counts: dict[str, int] = {}
        # Each loader resolves its *dependencies* through the paid store
        # path first (so nested load costs, fault draws, and breaker
        # reports are identical whether the shared cache is cold or
        # warm), and only the pure builder work is generation-memoized.
        self._loaders: dict[str, Callable[[], object]] = {
            "corpus": self._build_corpus,
            "regions": self._build_regions,
            "risks": self._build_risks,
            "clustering": self._build_clustering,
        }

    def _corpus(self) -> TweetCorpus:
        return cast(TweetCorpus, self.load("corpus"))

    def _build_corpus(self) -> object:
        run_dir = self._run_dir
        return self._shared.get(
            (self._generation, "corpus"),
            lambda: TweetCorpus(read_jsonl(run_dir / "corpus.jsonl")),
        )

    def _build_regions(self) -> object:
        corpus = self._corpus()
        return self._shared.get(
            (self._generation, "regions"),
            lambda: characterize_regions(corpus),
        )

    def _build_risks(self) -> object:
        corpus = self._corpus()
        return self._shared.get(
            (self._generation, "risks"),
            lambda: highlighted_organs(corpus),
        )

    def _build_clustering(self) -> object:
        corpus = self._corpus()
        policy = self._policy
        return self._shared.get(
            (
                self._generation,
                "clustering",
                policy.cluster_k,
                _CLUSTER_N_INIT,
            ),
            lambda: cluster_users(
                build_attention_matrix(corpus),
                UserClusteringConfig(
                    k=policy.cluster_k, n_init=_CLUSTER_N_INIT
                ),
            ),
        )

    @property
    def loads(self) -> int:
        """Total store misses that went through the paid load path."""
        return sum(self._load_counts.values())

    def load(self, name: str) -> object:
        """Return the named artifact, loading (and paying) on a miss.

        Raises:
            BreakerOpenError: the breaker is open; refused instantly,
                without spending any deadline budget.
            InjectedQueryError: the load-chaos plan failed this load.
            ConfigError: unknown artifact name.
        """
        if name not in self._loaders:
            raise ConfigError(f"unknown artifact {name!r}")
        if name in self._cache:
            return self._cache[name]
        now = self._clock.now()
        if not self._breaker.allow(now):
            raise BreakerOpenError(
                f"artifact store breaker open; refusing load of {name!r}"
            )
        index = self._load_counts.get(name, 0)
        self._load_counts[name] = index + 1
        fault = (
            self._plan.fault_for_load(name, index)
            if self._plan.any_faults
            else None
        )
        cost = self._policy.artifact_load_cost
        if fault is LoadFault.SLOW:
            cost += self._plan.slow_load_seconds
        self._clock.advance(cost)
        if fault is LoadFault.ERROR:
            self._breaker.record_failure(self._clock.now())
            raise InjectedQueryError(
                f"injected load failure for {name!r} (load {index})"
            )
        try:
            value = self._loaders[name]()
        except (BreakerOpenError, InjectedQueryError):
            # A nested load already recorded its own breaker outcome.
            raise
        except ReproError:
            self._breaker.record_failure(self._clock.now())
            raise
        self._breaker.record_success(self._clock.now())
        self._cache[name] = value
        return value


@dataclass(frozen=True, slots=True)
class ServeResult:
    """Everything one serve run produced.

    Attributes:
        responses: one terminal response per submitted request, in
            completion order.
        report: the overload accounting.
    """

    responses: tuple[Response, ...]
    report: OverloadReport


Handler = Callable[[QueryRequest, Deadline, int], tuple[dict[str, object], bool]]


class QueryService:
    """Discrete-event query service with the full overload stack.

    Args:
        run_dir: completed run directory (``corpus.jsonl`` required).
        policy: costs and defense sub-policies.
        plan: load-chaos plan (storms, poison, slow/failing loads).
        cache: generation-keyed artifact cache to share across services;
            ``None`` (default) gives this service a private cache, which
            preserves full isolation between service instances — chaos
            suites rely on that.
    """

    def __init__(
        self,
        run_dir: str | Path,
        policy: ServicePolicy | None = None,
        plan: LoadFaultPlan | None = None,
        cache: ArtifactCache | None = None,
    ):
        self.run_dir = Path(run_dir)
        self.policy = policy or ServicePolicy()
        self.plan = plan or LoadFaultPlan.none()
        self.clock = ManualClock(0.0)
        self.breaker = CircuitBreaker(self.policy.breaker)
        self.cache = cache if cache is not None else ArtifactCache()
        self.generation = corpus_generation(self.run_dir)
        self.store = ArtifactStore(
            self.run_dir,
            self.policy,
            self.plan,
            self.clock,
            self.breaker,
            self.cache,
            self.generation,
        )
        # Coarse summaries are the brownout floor: built once at startup,
        # straight from disk, deliberately outside the breaker's blast
        # radius (this models offline precomputation at deploy time).
        # Both the corpus parse and the summary build go through the
        # generation cache, so a second service on an unchanged run
        # directory starts without touching the corpus file.
        self.coarse = cast(
            CoarseSummaries,
            self.cache.get(
                (self.generation, "coarse"),
                lambda: CoarseSummaries.from_corpus(
                    cast(
                        TweetCorpus,
                        self.cache.get(
                            (self.generation, "corpus"),
                            lambda: TweetCorpus(
                                read_jsonl(self.run_dir / "corpus.jsonl")
                            ),
                        ),
                    )
                ),
            ),
        )
        self._ladder = BrownoutLadder(self.policy.brownout)
        self._queue: AdmissionQueue[QueryRequest] = AdmissionQueue(
            self.policy.admission, now=0.0
        )
        self._handlers: dict[str, Handler] = {}
        self.register("health", self._handle_health)
        self.register("state_signature", self._handle_state_signature)
        self.register("relative_risk", self._handle_relative_risk)
        self.register("cluster_profile", self._handle_cluster_profile)

    def register(self, kind: str, handler: Handler) -> None:
        """Install (or replace) the handler for one query kind."""
        self._handlers[kind] = handler

    # -- the event loop -------------------------------------------------

    def serve(
        self,
        requests: list[QueryRequest],
        malformed: tuple[tuple[str, str], ...] = (),
    ) -> ServeResult:
        """Run every request to a terminal response.

        Args:
            requests: parsed requests, any order.
            malformed: (request_id, reason) pairs for input lines that
                never parsed — dead-lettered at time 0 so they still
                count against the accounting invariant.
        """
        telemetry = current()
        report = OverloadReport()
        responses: list[Response] = []

        for request_id, reason in malformed:
            report.submitted += 1
            report.dead_lettered += 1
            telemetry.inc("serve.dead_lettered", reason="malformed")
            responses.append(
                Response(
                    request_id=request_id,
                    outcome=Outcome.DEAD_LETTERED,
                    status=reason,
                )
            )

        schedule = self._materialize(requests)
        report.submitted += len(schedule)
        pending = deque(schedule)

        while pending or self._queue.depth:
            # Admit (or shed) everything that has arrived by now, at its
            # own arrival time — the front-door decision is independent
            # of when the busy service gets around to noticing it.
            while pending and pending[0].arrival <= self.clock.now():
                request = pending.popleft()
                self._admit(request, report, responses)
            if self._queue.depth == 0:
                if pending:
                    self.clock.advance(pending[0].arrival - self.clock.now())
                continue
            request = self._queue.pop()
            if request is None:  # pragma: no cover - depth checked above
                continue
            level = self._ladder.observe(self._queue.depth)
            responses.append(self._dispatch(request, level, report))

        report.max_brownout_level = self._ladder.max_level_seen
        report.breaker_opens = self.breaker.opens
        report.breaker_transitions = list(self.breaker.transitions)
        report.artifact_loads = self.store.loads
        return ServeResult(responses=tuple(responses), report=report)

    def _materialize(self, requests: list[QueryRequest]) -> list[QueryRequest]:
        """Expand the schedule with storm clones, sorted by arrival."""
        expanded: list[QueryRequest] = []
        for index, base in enumerate(requests):
            expanded.append(base)
            if not self.plan.any_faults:
                continue
            for clone_index, clone in enumerate(self.plan.storm_for(index)):
                expanded.append(
                    QueryRequest(
                        request_id=f"{base.request_id}~storm{clone_index}",
                        kind=base.kind,
                        arrival=base.arrival + clone.offset,
                        params=base.params,
                        deadline=base.deadline,
                        poison=clone.poison or base.poison,
                    )
                )
        return [
            request
            for _, request in sorted(
                enumerate(expanded), key=lambda pair: (pair[1].arrival, pair[0])
            )
        ]

    def _admit(
        self,
        request: QueryRequest,
        report: OverloadReport,
        responses: list[Response],
    ) -> None:
        rejected = self._queue.offer(
            request, request.request_class, now=request.arrival
        )
        if rejected is None:
            report.admitted += 1
            current().inc("serve.admitted", kind=request.kind)
            return
        report.shed += 1
        if rejected.reason == "queue_full":
            report.shed_queue_full += 1
        else:
            report.shed_rate_limited += 1
        current().inc("serve.shed", reason=rejected.reason)
        responses.append(
            Response(
                request_id=request.request_id,
                outcome=Outcome.REJECTED,
                status=rejected.reason,
                finished_at=request.arrival,
            )
        )

    def _dispatch(
        self, request: QueryRequest, level: int, report: OverloadReport
    ) -> Response:
        deadline = Deadline.from_budget(
            request.arrival, request.deadline or self.policy.default_deadline
        )
        now = self.clock.now()
        if deadline.expired(now):
            report.expired += 1
            current().inc("serve.expired", where="queue")
            return Response(
                request_id=request.request_id,
                outcome=Outcome.EXPIRED,
                status="expired_in_queue",
                brownout_level=level,
                finished_at=now,
            )
        if request.poison:
            report.dead_lettered += 1
            current().inc("serve.dead_lettered", reason="poison")
            return Response(
                request_id=request.request_id,
                outcome=Outcome.DEAD_LETTERED,
                status="poison_query",
                brownout_level=level,
                finished_at=now,
            )
        handler = self._handlers.get(request.kind)
        if handler is None:
            report.dead_lettered += 1
            current().inc("serve.dead_lettered", reason="unknown_kind")
            return Response(
                request_id=request.request_id,
                outcome=Outcome.DEAD_LETTERED,
                status="unknown_kind",
                brownout_level=level,
                finished_at=now,
            )
        try:
            payload, degraded = handler(request, deadline, level)
        except DeadlineExceeded:
            report.expired += 1
            current().inc("serve.expired", where="handler")
            return Response(
                request_id=request.request_id,
                outcome=Outcome.EXPIRED,
                status="deadline_exceeded",
                brownout_level=level,
                finished_at=self.clock.now(),
            )
        except ReproError as exc:
            # The handler ran out of fallbacks (e.g. the coarse path
            # itself raised) — a terminal dead letter, never a hang.
            report.dead_lettered += 1
            current().inc("serve.dead_lettered", reason="handler_error")
            return Response(
                request_id=request.request_id,
                outcome=Outcome.DEAD_LETTERED,
                status=f"handler_error:{type(exc).__name__}",
                brownout_level=level,
                finished_at=self.clock.now(),
            )
        report.completed += 1
        if degraded:
            report.degraded += 1
            current().inc("serve.degraded", kind=request.kind)
        current().inc("serve.completed", kind=request.kind)
        return Response(
            request_id=request.request_id,
            outcome=Outcome.COMPLETED,
            status="degraded" if degraded else "ok",
            payload=payload,
            brownout_level=level,
            finished_at=self.clock.now(),
        )

    # -- handlers -------------------------------------------------------

    def _spend(self, cost: float, deadline: Deadline) -> None:
        """Advance the clock by one stage's cost, then check the budget."""
        self.clock.advance(cost)
        deadline.check(self.clock.now())

    def _require_param(self, request: QueryRequest, key: str) -> str:
        value = request.param(key)
        if value is None:
            raise QueryError(f"{request.kind} requires param {key!r}")
        return value

    def _handle_health(
        self, request: QueryRequest, deadline: Deadline, level: int
    ) -> tuple[dict[str, object], bool]:
        self._spend(self.policy.health_cost, deadline)
        return (
            {
                "status": "ok",
                "queue_depth": self._queue.depth,
                "brownout_level": level,
                "breaker_state": self.breaker.state.value,
            },
            False,
        )

    def _handle_state_signature(
        self, request: QueryRequest, deadline: Deadline, level: int
    ) -> tuple[dict[str, object], bool]:
        state = self._require_param(request, "state")
        if level == 0:
            try:
                regions = cast(
                    RegionCharacterization, self.store.load("regions")
                )
                deadline.check(self.clock.now())
                self._spend(self.policy.state_signature_cost, deadline)
                if state not in regions.states:
                    return {"state": state, "found": False}, False
                signature = regions.signature(state)
                return (
                    {
                        "state": state,
                        "found": True,
                        "signature": [
                            [organ.value, round(float(weight), 9)]
                            for organ, weight in signature
                        ],
                    },
                    False,
                )
            except (BreakerOpenError, InjectedQueryError):
                pass  # fall back to the coarse answer below
        self._spend(self.policy.coarse_cost, deadline)
        return self.coarse.state_signature(state, level), True

    def _handle_relative_risk(
        self, request: QueryRequest, deadline: Deadline, level: int
    ) -> tuple[dict[str, object], bool]:
        state = self._require_param(request, "state")
        if level == 0:
            try:
                risks = cast(
                    "dict[str, tuple[Organ, ...]]", self.store.load("risks")
                )
                deadline.check(self.clock.now())
                self._spend(self.policy.relative_risk_cost, deadline)
                highlighted = risks.get(state)
                if highlighted is None:
                    return {"state": state, "found": False}, False
                return (
                    {
                        "state": state,
                        "found": True,
                        "highlighted": [organ.value for organ in highlighted],
                    },
                    False,
                )
            except (BreakerOpenError, InjectedQueryError):
                pass
        self._spend(self.policy.coarse_cost, deadline)
        return self.coarse.relative_risk(state, level), True

    def _handle_cluster_profile(
        self, request: QueryRequest, deadline: Deadline, level: int
    ) -> tuple[dict[str, object], bool]:
        cluster_raw = request.param("cluster") or "0"
        try:
            cluster = int(cluster_raw)
        except ValueError as exc:
            raise QueryError(f"cluster must be an integer, got {cluster_raw!r}") from exc
        if level == 0:
            try:
                clustering = cast(
                    UserClustering, self.store.load("clustering")
                )
                deadline.check(self.clock.now())
                self._spend(self.policy.cluster_profile_cost, deadline)
                profile = clustering.cluster_profile(cluster)
                sizes = clustering.relative_sizes()
                return (
                    {
                        "cluster": cluster,
                        "k": clustering.k,
                        "relative_size": round(float(sizes[cluster]), 9),
                        "profile": [
                            [organ.value, round(float(weight), 9)]
                            for organ, weight in profile
                        ],
                    },
                    False,
                )
            except (BreakerOpenError, InjectedQueryError):
                pass
        self._spend(self.policy.coarse_cost, deadline)
        return self.coarse.cluster_profile(level), True


# -- request/response JSONL IO ------------------------------------------


def read_requests_jsonl(
    path: str | Path,
) -> tuple[list[QueryRequest], tuple[tuple[str, str], ...]]:
    """Parse a request file; malformed lines become dead-letter stubs.

    Returns ``(requests, malformed)`` where each malformed entry is a
    ``(request_id, reason)`` pair with ids like ``line-3`` — malformed
    input is *submitted* work and must be accounted for, so it flows
    into :meth:`QueryService.serve` rather than being dropped here.
    """
    requests: list[QueryRequest] = []
    malformed: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            stub = f"line-{line_number}"
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                malformed.append((stub, "malformed_json"))
                continue
            try:
                requests.append(_request_from_dict(data))
            except (QueryError, KeyError, TypeError, ValueError):
                malformed.append((stub, "malformed_request"))
    return requests, tuple(malformed)


def _request_from_dict(data: dict[str, object]) -> QueryRequest:
    if not isinstance(data, dict):
        raise QueryError("request line must be a JSON object")
    request_id = data["id"]
    kind = data["kind"]
    arrival = data.get("arrival", 0.0)
    if not isinstance(request_id, str) or not request_id:
        raise QueryError("id must be a non-empty string")
    if not isinstance(kind, str) or not kind:
        raise QueryError("kind must be a non-empty string")
    if not isinstance(arrival, (int, float)) or isinstance(arrival, bool):
        raise QueryError("arrival must be a number")
    # json.loads accepts NaN and ±Infinity; a non-finite arrival would
    # stall the simulated clock and write non-JSON response tokens.
    if not math.isfinite(arrival) or arrival < 0:
        raise QueryError("arrival must be a finite number >= 0")
    params_raw = data.get("params", {})
    if not isinstance(params_raw, dict):
        raise QueryError("params must be an object")
    params = tuple(
        (str(key), str(value)) for key, value in sorted(params_raw.items())
    )
    deadline_raw = data.get("deadline")
    deadline: float | None = None
    if deadline_raw is not None:
        if (
            not isinstance(deadline_raw, (int, float))
            or isinstance(deadline_raw, bool)
            or not math.isfinite(deadline_raw)
            or deadline_raw <= 0
        ):
            raise QueryError("deadline must be a finite positive number")
        deadline = float(deadline_raw)
    return QueryRequest(
        request_id=request_id,
        kind=kind,
        arrival=float(arrival),
        params=params,
        deadline=deadline,
    )


def write_responses_jsonl(
    responses: tuple[Response, ...] | list[Response], path: str | Path
) -> int:
    """Atomically write the response stream with its manifest sidecar.

    Keys are sorted so the byte stream is a pure function of the
    response values — the property suite fingerprints this file.
    """
    crcs: list[int] = []
    with AtomicWriter(path) as writer:
        for response in responses:
            line = json.dumps(
                response.to_dict(), sort_keys=True, ensure_ascii=False
            )
            writer.write(line)
            writer.write("\n")
            crcs.append(record_crc(line))
    write_manifest(
        path,
        Manifest(
            file=Path(path).name,
            sha256=writer.sha256_hex,
            size_bytes=writer.bytes_written,
            record_crcs=tuple(crcs),
        ),
    )
    return len(crcs)
