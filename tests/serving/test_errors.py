"""The typed serving-error hierarchy and its protocol-code mapping."""

from __future__ import annotations

import pytest

from repro.exceptions import FitError, ServingError
from repro.serving import ForecastSession
from repro.serving.errors import (
    AdmissionError,
    ProtocolError,
    RefitTimeout,
    StreamNotFound,
    error_code,
)


class TestHierarchy:
    def test_every_subclass_is_a_serving_error(self):
        for exc_type in (AdmissionError, ProtocolError, RefitTimeout, StreamNotFound):
            assert issubclass(exc_type, ServingError)

    def test_existing_handlers_keep_catching_everything(self):
        # The whole point of subclassing: `except ServingError` written
        # against the flat hierarchy keeps working.
        with pytest.raises(ServingError):
            raise AdmissionError("fleet full")

    def test_protocol_codes_are_pinned(self):
        assert ServingError("x").code == 400
        assert ProtocolError("x").code == 400
        assert StreamNotFound("x").code == 404
        assert AdmissionError("x").code == 429
        assert RefitTimeout("x").code == 504


class TestErrorCode:
    def test_serving_errors_map_to_their_code(self):
        assert error_code(AdmissionError("full")) == 429
        assert error_code(StreamNotFound("gone")) == 404
        assert error_code(RefitTimeout("slow")) == 504
        assert error_code(ProtocolError("bad line")) == 400
        assert error_code(ServingError("generic misuse")) == 400

    def test_non_serving_errors_are_internal(self):
        assert error_code(FitError("solver blew up")) == 500
        assert error_code(ValueError("oops")) == 500


class TestSessionRaisesTyped:
    def test_unknown_stream_lookup_is_stream_not_found(self):
        session = ForecastSession()
        with pytest.raises(StreamNotFound, match="unknown stream 'nope'"):
            session["nope"]

    def test_unknown_stream_unregister_is_stream_not_found(self):
        session = ForecastSession()
        with pytest.raises(StreamNotFound):
            session.unregister("nope")

    def test_forecast_routes_through_typed_lookup(self):
        session = ForecastSession()
        with pytest.raises(StreamNotFound):
            session["nope"].forecast(10.0)
