"""AES-128 and its distributed 16-node byte-slice execution model."""
