import numpy as np
import pytest

from osseg import synthdata
from osseg.errors import ArgumentError, FormatError, ValidationError
from osseg.synthdata import (
    IGNORE,
    SOURCE_PALETTE,
    TARGET_PALETTE,
    DomainTag,
    LayoutMode,
    SceneSpec,
    generate_dataset,
    read_dataset,
    read_image,
    read_label,
    write_dataset,
    write_image,
    write_label,
)


class TestGeneration:
    def test_count_must_be_positive(self):
        with pytest.raises(ArgumentError):
            generate_dataset(SceneSpec(), 0)

    @pytest.mark.parametrize("size", [(0, 8), (-8, 8), (8, 4), (12, 16), (64, 60)])
    def test_size_must_be_positive_multiple_of_8(self, size):
        with pytest.raises(ArgumentError, match="multiples of 8"):
            SceneSpec(image_size=size)

    def test_every_multiple_of_8_up_to_64_generates(self):
        for side in range(8, 72, 8):
            for layout in LayoutMode:
                for sample in generate_dataset(
                        SceneSpec(image_size=(side, side), layout_mode=layout, seed=side), 20):
                    assert sample.label.shape == (side, side)

    def test_zero_noise_sky_is_exact_palette(self):
        palette = ((0.2, 0.4, 0.6), (0.8, 0.7, 0.1))
        spec = SceneSpec(palette=palette, texture_noise_sigma=0.0, seed=5)
        sample = generate_dataset(spec, 1)[0]
        sky = sample.label == 0
        assert sky.any()
        assert np.array_equal(
            sample.image[sky], np.tile(np.array(palette[0]), (sky.sum(), 1))
        )

    def test_determinism(self):
        spec = SceneSpec(seed=42)
        a = generate_dataset(spec, 3)
        b = generate_dataset(spec, 3)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image, sb.image)
            assert np.array_equal(sa.label, sb.label)

    def test_no_ignore_emitted(self):
        for sample in generate_dataset(SceneSpec(seed=7), 5):
            assert not (sample.label == IGNORE).any()
            assert sample.label.max() < 5

    def test_every_pixel_in_range(self):
        sample = generate_dataset(SceneSpec(seed=1), 1)[0]
        assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0

    def test_dense_city_vehicles_touch_buildings(self):
        spec = SceneSpec(layout_mode=LayoutMode.DENSE_CITY, seed=13)
        close = 0
        considered = 0
        for sample in generate_dataset(spec, 100):
            veh = np.argwhere(sample.label == synthdata.VEHICLE)
            bld = np.argwhere(sample.label == synthdata.BUILDING)
            if veh.size == 0 or bld.size == 0:
                continue
            considered += 1
            d = np.sqrt(
                ((veh[:, None, :] - bld[None, :, :]) ** 2).sum(axis=2)
            ).min()
            if d <= 2.0:
                close += 1
        assert considered >= 95
        assert close >= 0.95 * considered

    def test_open_field_vehicles_far_from_buildings(self):
        spec = SceneSpec(layout_mode=LayoutMode.OPEN_FIELD, seed=13)
        for sample in generate_dataset(spec, 50):
            veh = np.argwhere(sample.label == synthdata.VEHICLE)
            bld = np.argwhere(sample.label == synthdata.BUILDING)
            if veh.size == 0 or bld.size == 0:
                continue
            d = np.sqrt(((veh[:, None, :] - bld[None, :, :]) ** 2).sum(axis=2)).min()
            assert d > 2.0

    def test_style_shift_keeps_labels_identical(self):
        a = SceneSpec(palette=SOURCE_PALETTE, texture_noise_sigma=0.02, seed=21)
        b = SceneSpec(palette=TARGET_PALETTE, texture_noise_sigma=0.09, seed=21)
        for sa, sb in zip(generate_dataset(a, 10), generate_dataset(b, 10)):
            assert np.array_equal(sa.label, sb.label)

    def test_layout_shift_changes_adjacency_statistics(self):
        def mean_vehicle_building_distance(layout):
            spec = SceneSpec(layout_mode=layout, seed=3)
            dists = []
            for sample in generate_dataset(spec, 40):
                veh = np.argwhere(sample.label == synthdata.VEHICLE)
                bld = np.argwhere(sample.label == synthdata.BUILDING)
                if veh.size == 0 or bld.size == 0:
                    continue
                dists.append(
                    np.sqrt(((veh[:, None, :] - bld[None, :, :]) ** 2).sum(axis=2)).min()
                )
            return np.mean(dists)

        open_d = mean_vehicle_building_distance(LayoutMode.OPEN_FIELD)
        dense_d = mean_vehicle_building_distance(LayoutMode.DENSE_CITY)
        assert dense_d < open_d

    def test_palette_size_checked(self):
        # Sky and ground are always painted, so they need a colour each.
        for colours in (0, 1):
            with pytest.raises(ArgumentError, match="sky and ground need 2"):
                SceneSpec(palette=SOURCE_PALETTE[:colours])

    @pytest.mark.parametrize("colours", [2, 3, 4, 5])
    def test_label_ids_below_palette_length(self, colours):
        for layout in LayoutMode:
            spec = SceneSpec(palette=SOURCE_PALETTE[:colours], layout_mode=layout, seed=colours)
            labels = np.stack([s.label for s in generate_dataset(spec, 20)])
            assert labels.max() == colours - 1


class TestRasterIO:
    def test_image_round_trip_zeros(self, tmp_path):
        path = tmp_path / "z.ppm"
        write_image(path, np.zeros((2, 2, 3)))
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n2 2\n255\n")
        assert blob[len(b"P6\n2 2\n255\n"):] == bytes(12)
        assert np.array_equal(read_image(path), np.zeros((2, 2, 3)))

    def test_value_one_round_trips(self, tmp_path):
        path = tmp_path / "w.ppm"
        write_image(path, np.ones((1, 1, 3)))
        assert np.array_equal(read_image(path), np.ones((1, 1, 3)))

    def test_half_quantizes_to_128(self, tmp_path):
        path = tmp_path / "h.ppm"
        write_image(path, np.full((1, 1, 3), 0.5))
        img = read_image(path)
        assert np.allclose(img, 128.0 / 255.0)

    def test_round_trip_error_bound(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((8, 8, 3))
        path = tmp_path / "r.ppm"
        write_image(path, img)
        back = read_image(path)
        assert np.abs(back - img).max() <= 1.0 / 510.0 + 1e-12

    def test_label_round_trip(self, tmp_path):
        lbl = np.array([[0, 1], [2, 255]], dtype=np.uint8)
        path = tmp_path / "l.pgm"
        write_label(path, lbl)
        assert np.array_equal(read_label(path), lbl)

    def test_all_ignore_round_trip(self, tmp_path):
        lbl = np.full((3, 3), IGNORE, dtype=np.uint8)
        path = tmp_path / "i.pgm"
        write_label(path, lbl)
        assert np.array_equal(read_label(path, num_classes=5), lbl)

    def test_random_label_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        lbl = rng.integers(0, 5, (64, 64)).astype(np.uint8)
        path = tmp_path / "r.pgm"
        write_label(path, lbl)
        assert np.array_equal(read_label(path, num_classes=5), lbl)

    def test_out_of_range_label_rejected(self, tmp_path):
        lbl = np.array([[7]], dtype=np.uint8)
        path = tmp_path / "bad.pgm"
        write_label(path, lbl)
        with pytest.raises(ValidationError):
            read_label(path, num_classes=5)

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n   ")
        with pytest.raises(FormatError) as exc:
            read_image(path)
        assert exc.value.offset == 0

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00")
        with pytest.raises(FormatError) as exc:
            read_image(path)
        assert exc.value.offset is not None and exc.value.offset >= 11

    @pytest.mark.parametrize("reader,blob", [
        (read_image, b"P6\n1 1\n255\n\x01\x02\x03" + b"tail"),
        (read_label, b"P5\n2 1\n255\n\x00\x01" + b"\n"),
    ])
    def test_trailing_bytes_rejected(self, tmp_path, reader, blob):
        path = tmp_path / "r.pnm"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="trailing bytes") as exc:
            reader(path)
        assert exc.value.offset == len(blob.rstrip(b"tail\n"))

    @pytest.mark.parametrize("reader,magic", [(read_image, b"P6"), (read_label, b"P5")])
    @pytest.mark.parametrize("size", [b"0 0", b"0 3", b"3 0"])
    def test_empty_raster_rejected(self, tmp_path, reader, magic, size):
        path = tmp_path / "e.pnm"
        path.write_bytes(magic + b"\n" + size + b"\n255\n")
        with pytest.raises(FormatError, match="empty"):
            reader(path)

    @pytest.mark.parametrize("defect,message", [
        ("no_tab", "manifest.txt:2: expected <image>TAB<label>"),
        ("not_utf8", "manifest.txt:2: not UTF-8"),
    ])
    def test_malformed_manifest_line_rejected(self, tmp_path, defect, message):
        write_dataset(tmp_path, "source", generate_dataset(SceneSpec(seed=2), 2))
        manifest = tmp_path / "manifest.txt"
        first, second = manifest.read_bytes().splitlines()
        second = second.replace(b"\t", b" ") if defect == "no_tab" else second + b"\xff"
        manifest.write_bytes(first + b"\n" + second + b"\n")
        with pytest.raises(FormatError, match=message):
            read_dataset(tmp_path)

    def test_manifest_pair_size_mismatch_rejected(self, tmp_path):
        write_dataset(tmp_path, "source", generate_dataset(SceneSpec(seed=2), 1))
        write_label(tmp_path / "source" / "lbl_0.pgm", np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(FormatError, match="manifest.txt:1: image .* sizes differ"):
            read_dataset(tmp_path)

    def test_dataset_manifest_round_trip(self, tmp_path):
        samples = generate_dataset(SceneSpec(seed=2), 3)
        write_dataset(tmp_path, "source", samples)
        manifest = (tmp_path / "manifest.txt").read_text().strip().splitlines()
        assert len(manifest) == 3
        assert manifest[0].split("\t")[0].endswith("img_0.ppm")
        loaded = read_dataset(tmp_path, num_classes=5)
        assert len(loaded) == 3
        for orig, back in zip(samples, loaded):
            assert np.array_equal(orig.label, back.label)
            assert np.abs(orig.image - back.image).max() <= 1.0 / 510.0 + 1e-12
            assert back.domain_tag is DomainTag.SOURCE
