"""repro.api: the layered protocol API of the F2 reproduction.

Three layers, bottom up:

* :mod:`repro.api.pipeline` / :mod:`repro.api.stages` — the composable
  :class:`EncryptionPipeline`: the four F2 steps (plus materialisation and
  the optional repair pass) as pluggable :class:`Stage` objects threaded
  through an :class:`EncryptionContext`, instrumented via :class:`StageHook`.
* :mod:`repro.api.protocol` — the transport-agnostic wire protocol: typed
  request/response messages serialized through :mod:`repro.wire`,
  :class:`ProtocolClient`/:class:`ProtocolServer` endpoints, the in-memory
  :class:`LoopbackTransport` and the TCP :class:`SocketTransport` /
  :class:`SocketProtocolServer`, durable segment stores, and planned
  selections over search tokens.
* :mod:`repro.api.session` — :class:`DataOwner` and :class:`ServiceProvider`
  model the paper's two-party outsourcing workflow end to end (the provider
  is a loopback facade over the protocol server), plus
  :class:`RemoteOwnerSession` for driving a remote provider.
* :mod:`repro.api.incremental` — batch :func:`insert_rows` against an
  already outsourced table, reusing the owner's retained ECG plans.

The legacy :class:`repro.F2Scheme` remains available as a thin facade over
the pipeline; new code should prefer the session objects.
"""

from repro.api.auth import (
    CAPABILITIES,
    CAPABILITY_ANALYST,
    CAPABILITY_OWNER,
    Credential,
    DEFAULT_TENANT,
    ErrorCode,
    TenantRegistry,
)
from repro.api.delta import (
    ViewDelta,
    apply_view_delta,
    compute_view_delta,
)
from repro.api.incremental import IncrementalReport, insert_rows
from repro.api.protocol import (
    DEFAULT_TABLE_ID,
    PROTOCOL_VERSION,
    Ack,
    DiscoverRequest,
    DiscoverResult,
    ErrorReply,
    Hello,
    HelloAck,
    InsertDelta,
    LoopbackTransport,
    Message,
    OutsourceRequest,
    PlanQueryRequest,
    PlanQueryResult,
    ProtocolClient,
    ProtocolServer,
    SignedEnvelope,
    SocketProtocolServer,
    SocketTransport,
    StatsReply,
    StatsRequest,
)
from repro.api.pipeline import (
    EncryptionContext,
    EncryptionPipeline,
    ObsStageHook,
    Stage,
    StageHook,
    StageRecord,
    StageRecorder,
    TimingHook,
)
from repro.api.session import (
    DataOwner,
    RemoteOwnerSession,
    ServiceProvider,
    decrypt_cell,
    decrypt_table,
    run_protocol,
)
from repro.api.stages import (
    ConflictResolutionStage,
    FalsePositiveStage,
    MasDiscoveryStage,
    MaterializeStage,
    SplitScaleStage,
    VerifyRepairStage,
    default_stages,
)

__all__ = [
    "Ack",
    "CAPABILITIES",
    "CAPABILITY_ANALYST",
    "CAPABILITY_OWNER",
    "ConflictResolutionStage",
    "Credential",
    "DEFAULT_TABLE_ID",
    "DEFAULT_TENANT",
    "DataOwner",
    "DiscoverRequest",
    "DiscoverResult",
    "EncryptionContext",
    "EncryptionPipeline",
    "ErrorCode",
    "ErrorReply",
    "FalsePositiveStage",
    "Hello",
    "HelloAck",
    "IncrementalReport",
    "InsertDelta",
    "LoopbackTransport",
    "MasDiscoveryStage",
    "MaterializeStage",
    "Message",
    "ObsStageHook",
    "OutsourceRequest",
    "PROTOCOL_VERSION",
    "PlanQueryRequest",
    "PlanQueryResult",
    "ProtocolClient",
    "ProtocolServer",
    "RemoteOwnerSession",
    "ServiceProvider",
    "SignedEnvelope",
    "SocketProtocolServer",
    "SocketTransport",
    "SplitScaleStage",
    "Stage",
    "StageHook",
    "StageRecord",
    "StageRecorder",
    "StatsReply",
    "StatsRequest",
    "TenantRegistry",
    "TimingHook",
    "VerifyRepairStage",
    "ViewDelta",
    "apply_view_delta",
    "compute_view_delta",
    "decrypt_cell",
    "decrypt_table",
    "default_stages",
    "insert_rows",
    "run_protocol",
]
