#!/usr/bin/env python3
"""Generates the zlib-produced DEFLATE fixtures for tests/inflate_test.cpp.

compress::deflate only emits stored and fixed-Huffman blocks, so the
dynamic-Huffman paths of the inflater (code-length code, repeat codes,
codes longer than the decoder's first-level table) need streams from a
real encoder. This script uses python3's built-in zlib module (no network,
no third-party packages) and writes, into the output directory:

  <plain>.bin     the plaintexts (deterministic, seeded)
  <name>.gz       gzip members (zlib wbits=31: a 10-byte header with no
                  optional fields, the raw DEFLATE stream, CRC-32, ISIZE)
  MANIFEST        one line per fixture: "<name>.gz <plain>.bin <note>"

The test strips the gzip framing to get the raw stream and rebuilds a
zlib wrapper around it, so every fixture runs through inflate(),
gzip_decompress() and zlib_decompress().

It also writes the seed corpus of fuzz/fuzz_inflate.cpp (stored, fixed,
dynamic, long-code, multi-block and truncated streams) into CORPUS_DIR.

Usage: python3 tools/gen_inflate_fixtures.py [OUT_DIR [CORPUS_DIR]]
       (defaults: tests/fixtures/inflate and fuzz/corpus/fuzz_inflate)
"""

import os
import random
import sys
import zlib

STRATEGIES = {
    "default": zlib.Z_DEFAULT_STRATEGY,
    "filtered": zlib.Z_FILTERED,
    "huffman": zlib.Z_HUFFMAN_ONLY,
    "rle": zlib.Z_RLE,
    "fixed": zlib.Z_FIXED,
}


def http_text(rng, size):
    """HTML-ish response body: tags, words and numbers, like the service's
    gzip_bodies traffic."""
    words = ["content", "length", "server", "cache", "control", "cookie",
             "token", "user", "agent", "accept", "encoding", "gzip", "value",
             "script", "href", "class", "div", "span", "table", "admin"]
    out = []
    total = 0
    while total < size:
        tag = rng.choice(["p", "div", "span", "a", "li", "td"])
        body = " ".join(rng.choice(words) for _ in range(rng.randint(3, 12)))
        piece = '<%s class="c%d">%s %d</%s>\n' % (
            tag, rng.randint(0, 40), body, rng.randint(0, 99999), tag)
        out.append(piece)
        total += len(piece)
    return "".join(out).encode()[:size]


def skewed_bytes(rng):
    """Byte counts follow the Fibonacci numbers, so an optimal Huffman tree
    is a chain deeper than 15; zlib must length-limit it, and the literal
    code ends up with lengths 11..15 (past the decoder's 10-bit table)."""
    counts = [1, 1]
    while len(counts) < 19:
        counts.append(counts[-1] + counts[-2])
    data = bytearray()
    for symbol, count in enumerate(counts):
        data += bytes([0x41 + symbol]) * count
    rng.shuffle(data)
    return bytes(data)


def mixed_bytes(rng):
    """Text, then incompressible bytes (zlib switches to stored blocks),
    then text again (back to dynamic blocks)."""
    noise = bytes(rng.getrandbits(8) for _ in range(3000))
    return http_text(rng, 2000) + noise + http_text(rng, 2000)


def gzip_member(data, level, strategy, mem_level=8, flush_every=0):
    comp = zlib.compressobj(level, zlib.DEFLATED, 31, mem_level, strategy)
    out = bytearray()
    if flush_every:
        # Each Z_SYNC_FLUSH closes the current block and appends an empty
        # stored block, so the stream alternates compressed and stored.
        for at in range(0, len(data), flush_every):
            out += comp.compress(data[at:at + flush_every])
            out += comp.flush(zlib.Z_SYNC_FLUSH)
    else:
        out += comp.compress(data)
    out += comp.flush(zlib.Z_FINISH)
    # zlib writes MTIME 0 and OS 3 (Unix); pin OS so output is portable.
    out[9] = 0xFF
    return bytes(out)


def write_corpus(corpus_dir, plains):
    """fuzz_inflate seeds: byte 0 selects raw (0), gzip (1) or zlib (2),
    plus 4 for the tight output limit in bytes 1-2."""
    os.makedirs(corpus_dir, exist_ok=True)
    text = plains["http"][:1200]

    def raw(data, level, strategy=zlib.Z_DEFAULT_STRATEGY, **kw):
        return gzip_member(data, level, strategy, **kw)[10:-8]

    def zlib_stream(data, level):
        return zlib.compress(data, level)

    seeds = {
        "stored_raw": bytes([0, 0, 0]) + raw(text, 0),
        "fixed_gzip": bytes([1, 0, 0]) + gzip_member(text, 6, zlib.Z_FIXED),
        "dynamic_zlib": bytes([2, 0, 0]) + zlib_stream(text, 9),
        "long_codes_raw": bytes([0, 0, 0])
        + raw(plains["skewed"][:2500], 9, zlib.Z_HUFFMAN_ONLY),
        "multiblock_raw": bytes([0, 0, 0]) + raw(text, 9, mem_level=1),
        "syncflush_gzip": bytes([1, 0, 0])
        + gzip_member(text, 6, zlib.Z_DEFAULT_STRATEGY, flush_every=400),
        "truncated_gzip": bytes([1, 0, 0])
        + gzip_member(text, 6, zlib.Z_DEFAULT_STRATEGY)[:300],
        "tight_limit_gzip": bytes([5, 200, 0])
        + gzip_member(text, 6, zlib.Z_DEFAULT_STRATEGY),
    }
    for name, data in seeds.items():
        with open(os.path.join(corpus_dir, name), "wb") as f:
            f.write(data)
    return len(seeds)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        here, "..", "tests", "fixtures", "inflate")
    corpus_dir = sys.argv[2] if len(sys.argv) > 2 else os.path.join(
        here, "..", "fuzz", "corpus", "fuzz_inflate")
    os.makedirs(out_dir, exist_ok=True)

    rng = random.Random(20141202)
    plains = {
        "http": http_text(rng, 4096),
        "skewed": skewed_bytes(rng),
        "mixed": mixed_bytes(rng),
    }
    fixtures = []  # (name, plain, data, note)

    def add(name, plain, note, **kw):
        level = kw.pop("level")
        strategy = kw.pop("strategy", "default")
        member = gzip_member(plains[plain], level, STRATEGIES[strategy], **kw)
        fixtures.append((name, plain, member, note))

    # Every level x strategy on the HTTP-like body.
    add("http_l0", "http", "level 0 (stored)", level=0)
    for level in (1, 6, 9):
        for strategy in STRATEGIES:
            add("http_l%d_%s" % (level, strategy), "http",
                "level %d, %s strategy" % (level, strategy),
                level=level, strategy=strategy)
    # Multi-block: memLevel 1 gives zlib a 128-symbol block buffer.
    add("http_l9_multiblock", "http", "level 9, memLevel 1: many blocks",
        level=9, mem_level=1)
    add("http_l6_syncflush", "http",
        "level 6, sync flush every 700 B: dynamic and empty stored blocks",
        level=6, flush_every=700)
    # Long codes: literal/length lengths up to 15.
    for level in (6, 9):
        for strategy in ("default", "huffman"):
            add("skewed_l%d_%s" % (level, strategy), "skewed",
                "level %d, %s strategy: literal codes up to 15 bits"
                % (level, strategy), level=level, strategy=strategy)
    # Stored blocks between dynamic ones.
    for level in (1, 6, 9):
        add("mixed_l%d" % level, "mixed",
            "level %d: dynamic, stored, dynamic blocks" % level, level=level)
    add("mixed_l6_multiblock", "mixed", "level 6, memLevel 1: many blocks",
        level=6, mem_level=1)
    add("mixed_l6_syncflush", "mixed",
        "level 6, sync flush every 1500 B: mixed block types",
        level=6, flush_every=1500)

    for name, data in plains.items():
        with open(os.path.join(out_dir, name + ".bin"), "wb") as f:
            f.write(data)
    lines = []
    for name, plain, member, note in fixtures:
        assert zlib.decompress(member, 31) == plains[plain], name
        with open(os.path.join(out_dir, name + ".gz"), "wb") as f:
            f.write(member)
        lines.append("%s.gz %s.bin %s\n" % (name, plain, note))
    with open(os.path.join(out_dir, "MANIFEST"), "w") as f:
        f.writelines(lines)
    seeds = write_corpus(corpus_dir, plains)
    print("wrote %d fixtures, %d plaintexts to %s; %d seeds to %s"
          % (len(fixtures), len(plains), out_dir, seeds, corpus_dir))


if __name__ == "__main__":
    main()
