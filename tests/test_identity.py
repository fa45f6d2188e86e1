from ewire.algebra import max_dim, set_max_dim

from tests.identity import QFT_CAP, qft_digests

# md5 prefixes of fourier's cpsu map at n = 1, 2 and 3: the first three
# entries of tests/identity.py's output
QFT_PREFIXES = ["9120c94b", "2335520c", "f56bd72a"]


def test_identity_script_reproduces_the_qft_digests():
    old = max_dim()
    set_max_dim(QFT_CAP)
    try:
        got = qft_digests(range(1, 4))
    finally:
        set_max_dim(old)
    assert [label for label, _ in got] == ["qft n=1", "qft n=2", "qft n=3"]
    assert [digest[:8] for _, digest in got] == QFT_PREFIXES
