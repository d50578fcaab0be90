"""Host nodes: end hosts, remote-memory servers."""
