"""The paper's contribution: remote-memory primitives for switch data planes.

Three data-plane primitives over an RDMA channel to server DRAM (§3–§4):

* :class:`RemotePacketBuffer` — extend an egress queue into a remote ring.
* :class:`RemoteLookupTable` — remote exact-match table with SRAM caching.
* :class:`RemoteStateStore` — remote counters via atomic Fetch-and-Add.

Plus the control plane that wires them up (:class:`RdmaChannelController`)
and the shared request generator (:class:`RoceRequestGenerator`).
"""
