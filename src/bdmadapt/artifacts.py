"""The one writer of the package's JSON artifacts."""


def write_json(path: str, obj):
    """Write obj to path as JSON: orjson, 2-space indent, numpy arrays and
    scalars serialized natively, every float in its shortest round-trip form.

    orjson writes a non-finite float as null (the stdlib writes NaN).  No
    artifact float can be non-finite: the solve's residual gate,
    field_values and the indicator checks reject such values upstream.
    orjson is imported here, not at package import, so `import bdmadapt`
    does not pay for it.
    """
    import orjson

    blob = orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY
                        | orjson.OPT_INDENT_2)
    with open(path, "wb") as fh:
        fh.write(blob)
