"""RoCEv2 protocol stack: headers, memory regions, queue pairs, RNIC model."""
