"""A working MPI subset over the simulated verbs / IPoIB transports.

This is the substrate for the paper's fig. 6 (NPB over RDMA vs CoRD vs
IPoIB): a real message-passing library with

- eager + rendezvous point-to-point protocols (rendezvous = RTS/CTS +
  RDMA-write-with-immediate, the classic zero-copy scheme),
- tag matching with wildcard source/tag and an unexpected-message queue,
- nonblocking requests (``isend``/``irecv``/``wait``/``waitall``),
- the collectives the NPB skeletons call (barrier, allreduce,
  alltoall/v),
- a rank runtime that pins each rank to a simulated core and runs ranks
  across the cluster's hosts; shared-memory bypass is deliberately absent
  (the paper disables it to amplify network effects).

Payloads are optional: NPB skeletons move sizes; correctness tests move
real numpy arrays and verify the collectives' results.
"""

from repro.mpi.requests import Request
from repro.mpi.communicator import ANY_SOURCE, ANY_TAG, Communicator
from repro.mpi.world import MpiWorld

__all__ = [
    "Request",
    "Communicator",
    "ANY_SOURCE",
    "ANY_TAG",
    "MpiWorld",
]
