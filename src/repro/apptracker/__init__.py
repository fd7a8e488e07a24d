"""appTracker integrations (Sec. 6.2): peer-selection engines and the
BitTorrent and Pando trackers built on them."""
