"""The line reader every user text file goes through."""

import io
import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evalkit.dataset import ingest
from evalkit.errors import SchemaMismatch, UndecodableFile, utf8_lines
from evalkit.harness import Task, load_predictions

# Line breaks of open() and of str.splitlines() only, and characters of one
# to four bytes.
_TEXT = st.text(alphabet=st.sampled_from(
    ["\r", "\n", "\x85", " ", "\x0c", "a", "\xe9", "€", "\U0001f600"]),
    max_size=40)
_FAULTS = st.sampled_from([b"\xff", b"\xc2 ", b"\xe2\x82", b"\xed\xa0\x80", b"\xf0\x9f\x98"])


@given(text=_TEXT, newline=st.sampled_from([None, ""]))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_lines_are_those_of_open(tmp_path, text, newline):
    path = tmp_path / "in.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8", newline=newline) as handle:
        assert list(utf8_lines(path, newline=newline)) == list(handle)


class _Pieces(io.RawIOBase):
    """A stream that hands out its bytes in pieces of the given sizes."""

    def __init__(self, data, sizes):
        self._data, self._sizes = data, list(sizes)

    def read(self, size=-1):
        take = self._sizes.pop() if self._sizes else size
        piece, self._data = self._data[:take], self._data[take:]
        return piece


# Piece boundaries fall anywhere: inside a character, or between "\r" and "\n".
@given(text=_TEXT, newline=st.sampled_from([None, ""]),
       sizes=st.lists(st.integers(1, 5), max_size=40))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_lines_do_not_depend_on_how_the_stream_is_read(tmp_path, text, newline, sizes):
    data = text.encode("utf-8")
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    with open(path, encoding="utf-8", newline=newline) as handle:
        expected = list(handle)
    assert list(utf8_lines("in", newline, _Pieces(data, sizes))) == expected


@given(head=_TEXT, fault=_FAULTS, tail=st.binary(max_size=8),
       sizes=st.lists(st.integers(1, 5), max_size=20))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_decode_fault_is_worded_as_a_whole_decode(tmp_path, head, fault, tail, sizes):
    path = tmp_path / "in.txt"
    data = head.encode("utf-8") + fault + tail
    path.write_bytes(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        with pytest.raises(UndecodableFile) as info:
            list(utf8_lines(path))
        assert str(info.value) == f"{path}: not UTF-8 text ({exc})"
        with pytest.raises(UndecodableFile) as info:
            list(utf8_lines("in", stream=_Pieces(data, sizes)))
        assert str(info.value) == f"in: not UTF-8 text ({exc})"
    else:  # the tail completed the fault's character
        assert "".join(utf8_lines(path, newline="")) == text


def _read_predictions(path):
    return load_predictions(path, Task.INDICATION_TO_DRUG)


# reader -> (header, row i); each row's last field is "pain".
READERS = {
    "predictions": (_read_predictions, "",
                    lambda i: json.dumps({"id": f"r{i}", "reference": "CCO",
                                          "hypothesis": "pain"}) + "\n"),
    "generic_jsonl": (lambda path: ingest(path, "generic_jsonl"), "",
                      lambda i: json.dumps({"id": f"r{i}", "smiles": "CCO",
                                            "indication": "pain"}) + "\n"),
    "drugbank_csv": (lambda path: ingest(path, "drugbank_csv"),
                     "id,name,smiles,indication\n", lambda i: f"r{i},n,CCO,pain\n"),
    "chembl_tsv": (lambda path: ingest(path, "chembl_tsv"),
                   "chembl_id\tcanonical_smiles\tmesh_heading\n",
                   lambda i: f"r{i}\tCCO\tpain\n"),
}


# The position once counted from the start of an 8 KiB decode buffer.
@pytest.mark.parametrize("reader", sorted(READERS))
def test_decode_fault_past_8_kib_names_its_position_in_the_file(tmp_path, reader):
    read, header, row = READERS[reader]
    before = (header + "".join(row(i) for i in range(2000))).encode("utf-8")
    assert len(before) > 3 * 8192
    bad = row(2000).encode("utf-8").replace(b"pain", b"pa\xffin")
    at = len(before) + bad.index(b"\xff")
    path = tmp_path / "in.txt"
    path.write_bytes(before + bad + row(2001).encode("utf-8"))
    with pytest.raises(UndecodableFile) as info:
        read(path)
    assert str(info.value) == (f"{path}: not UTF-8 text ('utf-8' codec can't decode "
                               f"byte 0xff in position {at}: invalid start byte)")


# A bad byte in the first 8 KiB once came first wherever it was.
@pytest.mark.parametrize("at", [100, 20_000])
def test_first_fault_in_the_file_is_reported(tmp_path, at):
    _, _, row = READERS["predictions"]
    data = ("[]\n" + "".join(row(i) for i in range(600))).encode("utf-8")
    assert len(data) > at + 100
    path = tmp_path / "in.jsonl"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(SchemaMismatch) as info:
        _read_predictions(path)
    assert str(info.value) == f"{path} line 1: not a JSON object"


# A file whose lines end in "\r" alone is read a line at a time too.
def test_first_fault_is_reported_in_a_file_of_cr_line_endings(tmp_path):
    _, _, row = READERS["predictions"]
    data = "[]\r" + "".join(row(i).replace("\n", "\r") for i in range(600))
    path = tmp_path / "in.jsonl"
    path.write_bytes(data.encode("utf-8") + b"\xff\r")
    with pytest.raises(SchemaMismatch) as info:
        _read_predictions(path)
    assert str(info.value) == f"{path} line 1: not a JSON object"


def test_file_of_cr_line_endings_is_not_held_whole(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"CCO c1ccccc1 CC(=O)O\r" * 200_000)  # 4.2 MB
    tracemalloc.start()
    try:
        count = sum(1 for _ in utf8_lines(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 200_000
    assert peak < 1_000_000
