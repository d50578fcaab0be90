"""Network substrate: addresses, header codecs, packets, links, nodes."""
